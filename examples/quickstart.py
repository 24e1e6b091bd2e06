"""Quickstart: synthesize a one-line method from a type and two specs.

This example builds the small blogging app of the paper's overview, then asks
the synthesizer for a ``user_exists`` method::

    define :user_exists, "(Str) -> Bool", [User] do
      spec "existing username" do ... end
      spec "missing username" do ... end
    end

and runs it through a :class:`~repro.synth.session.SynthesisSession`, the
engine object that owns the problem's state snapshots across runs.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.apps.blog import build_blog_app, seed_blog
from repro.synth import SynthConfig, SynthesisSession, define


def main() -> None:
    app = build_blog_app()
    User = app.models["User"]

    problem = define(
        "user_exists",
        "(Str) -> Bool",
        consts=[True, False, User],
        class_table=app.class_table,
        reset=app.reset,
    )

    with problem.spec("existing username") as s:

        @s.setup
        def _(ctx):
            seed_blog(app)
            ctx.invoke("author")

        @s.postcond
        def _(ctx, result):
            ctx.assert_(lambda: result is True)

    with problem.spec("missing username") as s:

        @s.setup
        def _(ctx):
            seed_blog(app)
            ctx.invoke("nobody")

        @s.postcond
        def _(ctx, result):
            ctx.assert_(lambda: result is False)

    with SynthesisSession(SynthConfig(timeout_s=30)) as session:
        result = session.run(problem)
    print(f"synthesized in {result.elapsed_s:.2f}s "
          f"({result.counters['search.evaluated']} candidates evaluated)\n")
    print(result.pretty())
    assert result.success


if __name__ == "__main__":
    main()
