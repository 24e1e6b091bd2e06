"""Host-speed canary: a fixed pure-Python workload timed next to every run.

The benchmark runs on shared virtual CPUs whose speed changes by up to
1.5x (other tenants' load on the same cores), from one second to the next
and over minutes, for the engine and for plain Python code alike.  No
statistic over a run's wall times removes a change that lasts longer than
the run.  So before every timed synthesis run, and
after every set-up, the benchmark times this canary: it builds, evaluates
and hashes a fixed set of small expression trees -- allocation, attribute
access, recursion and dict hashing, the same kind of work the interpreter
and enumerator do -- and it uses no engine code, so no change to ``src/``
moves it.  ``run.py`` reports each time scaled to a host on which the
canary takes ``REF_S``: ``wall_s * REF_S / canary_s``.

On a 2-vCPU host, over eight 60 s runs of ``paper-cold``, scaling by this
canary (the mean of the canaries just before and just after each run) cut
the coefficient of variation of ``suite_s`` from 0.086 to 0.022, and of
``slowest_s`` from 0.128 to 0.073.  An arithmetic loop (0.037 / 0.105) and
a pointer chase over a 300k-object heap (0.034 / 0.097), each scaling by
the canary before the run alone, tracked the host less well than this one
did the same way (0.024 / 0.095).
"""

from __future__ import annotations

import random
import time
from typing import Dict, Tuple

#: Canary time on the reference host; scaled times are seconds on it.
REF_S = 0.030

#: Trees per canary run, and their maximum depth.
TREES = 100
DEPTH = 8


class Node:
    __slots__ = ("op", "kids", "val")

    def __init__(self, op: str, kids: Tuple["Node", ...], val: int) -> None:
        self.op = op
        self.kids = kids
        self.val = val


def _build(rng: random.Random, depth: int) -> Node:
    if depth == 0 or rng.random() < 0.2:
        return Node("lit", (), rng.randrange(100))
    op = rng.choice(("add", "mul", "let"))
    return Node(op, (_build(rng, depth - 1), _build(rng, depth - 1)), 0)


def _eval(node: Node, env: Dict[int, int]) -> int:
    if node.op == "lit":
        return node.val
    left = _eval(node.kids[0], env)
    if node.op == "add":
        return left + _eval(node.kids[1], env)
    if node.op == "mul":
        return left * _eval(node.kids[1], env) % 1009
    inner = dict(env)
    inner[len(inner)] = left
    return _eval(node.kids[1], inner)


def _key(node: Node) -> tuple:
    return (node.op, node.val, tuple(_key(kid) for kid in node.kids))


def canary() -> float:
    """Seconds one run of the fixed canary workload takes."""

    start = time.perf_counter()
    rng = random.Random(3)
    seen: Dict[tuple, int] = {}
    for _ in range(TREES):
        tree = _build(rng, DEPTH)
        seen[_key(tree)] = _eval(tree, {})
    return time.perf_counter() - start
