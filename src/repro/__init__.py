"""A reproduction of RbSyn: type- and effect-guided program synthesis.

The engine's entry point is :class:`repro.synth.SynthesisSession`; see
``docs/API.md``.
"""
