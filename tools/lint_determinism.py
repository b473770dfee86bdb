#!/usr/bin/env python
"""Determinism lint for the simulated runtime.

The whole value of the schedule-exploration checker (``repro.check``)
rests on one property: *a seed is a schedule*.  Replaying a seed must
reproduce the identical interleaving, which it cannot if the runtime
consults any ordering source outside the seeded
:class:`~repro.sim.ExploringSimulator`.  This lint walks the AST of the
scheduling/matching-critical packages and rejects the three ways that
property has historically been lost, plus a data-plane rule and a
dispatch rule:

``unseeded-rng``
    Calls to the process-global ``random`` module RNG
    (``random.random()``, ``random.shuffle()``, ...), ``random.Random()``
    with no seed, the legacy ``numpy.random.*`` global functions, or
    ``numpy.random.default_rng()`` with no seed.  All randomness must
    flow from an explicit seed (``random.Random(seed)``,
    ``np.random.default_rng(seed)``).

``set-iteration``
    Iterating directly over a set literal, set comprehension, or
    ``set(...)``/``frozenset(...)`` call in a ``for`` loop or
    comprehension.  Set iteration order depends on insertion history and
    hash randomization; scheduling or matching decisions derived from it
    differ run to run.  Sort first (``sorted(...)``) or keep a list.

``id-ordering``
    Using ``id()`` as a sort key (``sorted(xs, key=id)``, including via
    a trivial lambda) or comparing ``id()`` values.  CPython addresses
    vary across runs, so any order derived from them is unstable.
    ``id()`` for identity/membership (dict keys, ``seen`` sets) is fine.

``uninit-alloc``
    ``np.empty``/``np.empty_like``: the array holds whatever bytes the
    allocator left, and any byte read before it is written makes runs
    irreproducible (the ``pricing`` backend never writes receive
    buffers at all).  Zero-fill with ``np.zeros``/``np.zeros_like``, or
    say on the line why every byte is written before it is read.

``byte-view``
    ``.view(np.uint8)`` outside ``src/repro/hw/memory.py``.  A hand-made
    byte view of a strided array reshapes into a copy, and writes into
    it are lost: a receive into ``big[::2]`` left ``big`` all zeros.
    View bytes with ``as_bytes_view`` (it never copies and raises on a
    strided array) and land them with ``land_bytes``.

``raw-p2p``
    A ``._send_impl(``/``._recv_impl(`` call outside
    ``mpi/communicator.py`` (point-to-point), ``mpi/algorithms/schedule.py``
    (the collective engine) and ``mpi/rma.py`` (PSCW notifications).  A
    collective that drives the wire itself bypasses the schedule IR:
    the fast path cannot see it, and its receives skip the engine's
    short-receive check.  Build a schedule instead.

Suppression: append ``# det: ok`` (with an optional reason after a
second ``-``) to the offending line after a human has verified the use
cannot influence ordering, e.g.::

    seen = {id(proc)}  # det: ok - membership only, never ordering

An ``uninit-alloc`` suppression needs the reason.

Usage::

    python tools/lint_determinism.py            # lint the default paths
    python tools/lint_determinism.py src tests  # explicit paths

Exit status 1 when any finding survives suppression.  Wired into CI
next to the tier-1 tests.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path
from typing import Iterator, List, NamedTuple

#: Packages whose ordering decisions feed scheduling/matching.  apps/
#: and bench/ are driver-level (their RNG use is seeded experiment
#: input, checked by review rather than lint).
DEFAULT_PATHS = [
    "src/repro/apps",
    "src/repro/bench",
    "src/repro/sim",
    "src/repro/mpi",
    "src/repro/dcgn",
    "src/repro/check",
    "src/repro/gas",
    "src/repro/gpusim",
    "src/repro/hw",
    "src/repro/obs",
    "src/repro/serve",
    "src/repro/trace",
]

#: ``random.<name>`` module-level calls that consult the global RNG.
#: (Everything callable on the module that draws or mutates state.)
_GLOBAL_RANDOM_FNS = {
    "random", "randrange", "randint", "uniform", "triangular",
    "randbytes", "choice", "choices", "sample", "shuffle", "betavariate",
    "expovariate", "gammavariate", "gauss", "lognormvariate",
    "normalvariate", "paretovariate", "vonmisesvariate", "weibullvariate",
    "getrandbits", "seed", "setstate", "binomialvariate",
}

#: ``numpy.random`` attributes that are fine to reference: the modern
#: seedable generator API.
_NP_RANDOM_OK = {"default_rng", "Generator", "SeedSequence", "BitGenerator",
                 "PCG64", "Philox", "SFC64", "MT19937"}

SUPPRESS_MARK = "det: ok"
#: A suppression that gives its reason.
_REASONED = re.compile(r"det: ok - \S")

#: The one module allowed to view a buffer's bytes by hand.
_BYTE_VIEW_HOME = "src/repro/hw/memory.py"

#: The modules allowed to drive the point-to-point wire directly.
_RAW_P2P_HOMES = ("src/repro/mpi/communicator.py",
                  "src/repro/mpi/algorithms/schedule.py",
                  "src/repro/mpi/rma.py")

#: Allocations that leave their bytes uninitialized.
_UNINIT_ALLOCS = {"np.empty", "numpy.empty", "np.empty_like",
                  "numpy.empty_like"}


class Finding(NamedTuple):
    path: str
    line: int
    col: int
    rule: str
    message: str

    def __str__(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"[{self.rule}] {self.message}"
        )


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for an attribute chain rooted at a Name, else ''."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_set_expr(node: ast.AST) -> bool:
    """Expressions whose iteration order is hash-dependent."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _is_id_key(node: ast.AST) -> bool:
    """A ``key=`` argument that sorts by ``id``: bare ``id`` or a
    one-liner lambda whose body is an ``id(...)`` call."""
    if isinstance(node, ast.Name) and node.id == "id":
        return True
    if isinstance(node, ast.Lambda):
        body = node.body
        return (
            isinstance(body, ast.Call)
            and isinstance(body.func, ast.Name)
            and body.func.id == "id"
        )
    return False


def _is_id_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
    )


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, source_lines: List[str]) -> None:
        self.path = path
        self.lines = source_lines
        self.findings: List[Finding] = []

    # -- helpers -----------------------------------------------------------
    def _suppressed(self, node: ast.AST, rule: str) -> bool:
        line = self.lines[node.lineno - 1]
        if rule == "uninit-alloc":
            return _REASONED.search(line) is not None
        return SUPPRESS_MARK in line

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        if not self._suppressed(node, rule):
            self.findings.append(
                Finding(self.path, node.lineno, node.col_offset, rule, message)
            )

    # -- unseeded RNG ------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        if name.startswith("random."):
            attr = name.split(".", 1)[1]
            if attr in _GLOBAL_RANDOM_FNS:
                self._flag(
                    node, "unseeded-rng",
                    f"{name}() uses the process-global RNG; draw from a "
                    "seeded random.Random(seed) instance instead",
                )
            elif attr == "Random" and not node.args and not node.keywords:
                self._flag(
                    node, "unseeded-rng",
                    "random.Random() with no seed is seeded from the OS; "
                    "pass an explicit seed",
                )
        if name in ("np.random.default_rng", "numpy.random.default_rng"):
            if not node.args and not node.keywords:
                self._flag(
                    node, "unseeded-rng",
                    f"{name}() with no seed is nondeterministic; pass an "
                    "explicit seed",
                )
        elif name.startswith(("np.random.", "numpy.random.")):
            attr = name.rsplit(".", 1)[1]
            if attr not in _NP_RANDOM_OK:
                self._flag(
                    node, "unseeded-rng",
                    f"{name}() uses numpy's global RNG; use "
                    "np.random.default_rng(seed)",
                )
        if name in _UNINIT_ALLOCS:
            self._flag(
                node, "uninit-alloc",
                f"{name}() leaves its bytes uninitialized; zero-fill, or "
                "annotate '# det: ok - <why every byte is written before "
                "it is read>'",
            )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "view"
            and len(node.args) == 1
            and _dotted(node.args[0]) in ("np.uint8", "numpy.uint8")
            and not Path(self.path).resolve().as_posix().endswith(
                _BYTE_VIEW_HOME
            )
        ):
            self._flag(
                node, "byte-view",
                ".view(np.uint8) outside hw/memory.py: a strided array's "
                "byte view is a copy and writes into it are lost; use "
                "as_bytes_view/land_bytes",
            )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("_send_impl", "_recv_impl")
            and not Path(self.path).resolve().as_posix().endswith(
                _RAW_P2P_HOMES
            )
        ):
            self._flag(
                node, "raw-p2p",
                f"{node.func.attr}() outside the p2p layer, the schedule "
                "engine and RMA: a collective must be a schedule",
            )
        # id() as an ordering key of sorted/min/max.
        if isinstance(node.func, ast.Name) and node.func.id in (
            "sorted", "min", "max"
        ):
            for kw in node.keywords:
                if kw.arg == "key" and _is_id_key(kw.value):
                    self._flag(
                        node, "id-ordering",
                        f"{node.func.id}(..., key=id) orders by CPython "
                        "address; use a stable key (name, index, seq)",
                    )
        self.generic_visit(node)

    # -- set iteration -----------------------------------------------------
    def _check_iter(self, it: ast.AST) -> None:
        if _is_set_expr(it):
            self._flag(
                it, "set-iteration",
                "iterating a set: order is hash-dependent; wrap in "
                "sorted(...) or keep a list",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    # -- id() comparisons --------------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        ordering_ops = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
        if any(isinstance(op, ordering_ops) for op in node.ops) and any(
            _is_id_call(o) for o in operands
        ):
            self._flag(
                node, "id-ordering",
                "comparing id() values orders by CPython address; compare "
                "a stable attribute instead",
            )
        self.generic_visit(node)


def lint_file(path: Path) -> List[Finding]:
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:  # pragma: no cover - broken file
        return [Finding(str(path), exc.lineno or 0, 0, "syntax",
                        f"cannot parse: {exc.msg}")]
    linter = _Linter(str(path), source.splitlines())
    linter.visit(tree)
    return linter.findings


def iter_files(paths: List[str]) -> Iterator[Path]:
    for p in paths:
        root = Path(p)
        if root.is_file():
            yield root
        else:
            yield from sorted(root.rglob("*.py"))


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Forbid nondeterministic ordering sources in the "
        "scheduling/matching-critical packages (see module docstring).",
    )
    parser.add_argument(
        "paths", nargs="*", default=DEFAULT_PATHS,
        help=f"files or directories to lint (default: {DEFAULT_PATHS})",
    )
    args = parser.parse_args(argv)

    findings: List[Finding] = []
    n_files = 0
    for f in iter_files(args.paths):
        n_files += 1
        findings.extend(lint_file(f))

    for finding in findings:
        print(finding)
    if findings:
        print(
            f"\n{len(findings)} determinism finding(s) in {n_files} "
            "file(s); fix or annotate with '# det: ok - <reason>'",
            file=sys.stderr,
        )
        return 1
    print(f"determinism lint: {n_files} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
