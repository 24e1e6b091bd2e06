"""Synthesizing effectful state transitions: Gitlab's Issue#close / #reopen.

These are benchmarks A7 and A8.  Both methods are straight-line sequences of
column writes discovered purely from the read effects of failing assertions:
closing an issue must write ``Issue.state`` and ``Issue.closed_at``, reopening
must write them back.  The example also shows how the synthesized method is
plain data (an AST) that can be executed against a fresh application context.

Run with::

    python examples/gitlab_issues.py
"""

from __future__ import annotations

from repro.benchmarks import get_benchmark
from repro.interp import Interpreter
from repro.synth import SynthConfig, SynthesisSession


def main() -> None:
    with SynthesisSession(SynthConfig(timeout_s=120)) as session:
        for benchmark_id in ("A7", "A8"):
            benchmark = get_benchmark(benchmark_id)
            result = session.run(benchmark)
            evaluated = result.counters["search.evaluated"]
            print(f"== {benchmark.id} {benchmark.name} "
                  f"({result.elapsed_s:.2f}s, {evaluated} candidates)")
            print(result.pretty())
            print()
            assert result.success

        # Execute the synthesized A7 method against its app to show it is a
        # runnable artifact, not just a string.  Re-running A7 through the
        # warm session reuses its built problem and snapshot recordings; the
        # search runs again and finds the same program.
        benchmark = get_benchmark("A7")
        problem = session.problem_for(benchmark)
        result = session.run(benchmark)
    from repro.apps.gitlab import seed_issues  # noqa: PLC0415

    app_issue = problem.class_table.pyclass("Issue")
    # Re-seed and close the crash issue through the synthesized method.
    problem.reset()
    seed_issues(_AppShim(problem))
    target = app_issue.find_by(title="Crash on startup")
    interpreter = Interpreter(problem.class_table)
    closed = interpreter.call_program(result.program, target.id)
    print(f"after running the synthesized method: state={closed.state!r}, "
          f"closed_at={closed.closed_at!r}")
    assert closed.state == "closed"


class _AppShim:
    """Minimal adapter so the seeding helper can be reused here."""

    def __init__(self, problem) -> None:
        self._problem = problem

    @property
    def models(self):
        return {
            "Issue": self._problem.class_table.pyclass("Issue"),
            "User": self._problem.class_table.pyclass("User"),
        }


if __name__ == "__main__":
    main()
