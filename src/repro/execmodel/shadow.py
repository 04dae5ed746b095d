"""Dynamic race detection: a shadow-access recorder for the interpreter.

The restructurer's dependence analysis *claims* that the iterations of
every DOALL loop it emits are independent once the privatized scalars,
reduction accumulators and substituted induction variables are set
aside.  This module validates that claim at runtime, the way the paper's
run-time dependence tests do: while the interpreter executes a parallel
loop worker by worker, every read and write of *shared* storage (any
variable not declared loop-local) is logged per iteration, and on loop
exit the log is scanned for cross-iteration conflicts — two different
iterations touching the same scalar cell or the same array element with
at least one write.

Scope rules:

- accesses to loop-local storage (the ``locals_`` a privatization or
  reduction transform declared, and the loop index itself) are private
  and never recorded;
- accesses inside a loop's preamble/postamble are skipped *for that
  loop* — partial-accumulator initialization and the combine step are
  synchronized constructs on the machine — but still recorded for any
  enclosing parallel loop;
- accesses made while a lock is held carry the lock name; two accesses
  that share a lock never conflict (unordered critical sections, §4.1.6);
- ordered (DOACROSS) loops are not checked: their carried dependences
  are covered by await/advance synchronization by construction.

Array sections are expanded to element cells up to ``expand_cap``
elements per access; beyond that a whole-array supercell is used, which
conflicts with every other access to the same array (conservative).
WHERE-masked section writes are recorded for the full section, another
deliberate over-approximation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional

from repro.execmodel.values import FArray, Scope

#: supercell marker: "every element of the array"
_ALL = "__all__"


@dataclass(frozen=True)
class RaceConflict:
    """One detected cross-iteration conflict in a DOALL loop."""

    loop: str                     # loop identifier, e.g. "do i @ line 12"
    var: str                      # variable (display name at first access)
    element: Optional[tuple]      # Fortran subscripts; None = scalar/whole
    kind: str                     # "write-write" | "read-write"
    iterations: tuple[int, int]   # the two conflicting iteration numbers

    def to_dict(self) -> dict:
        return {
            "loop": self.loop,
            "var": self.var,
            "element": list(self.element) if self.element is not None
            else None,
            "kind": self.kind,
            "iterations": list(self.iterations),
        }

    def describe(self) -> str:
        where = (f"{self.var}({', '.join(map(str, self.element))})"
                 if self.element else self.var)
        i, j = self.iterations
        return (f"{self.loop}: {self.kind} conflict on {where} between "
                f"iterations {i} and {j}")


class _LoopCtx:
    """Recording state of one active DOALL loop."""

    __slots__ = ("label", "wscope", "cur_iter", "suspended",
                 "private_data", "writes", "reads")

    def __init__(self, label: str):
        self.label = label
        self.wscope: Optional[Scope] = None
        self.cur_iter: Optional[int] = None
        self.suspended = False
        #: ids of ndarray storage allocated loop-locally (any worker)
        self.private_data: set[int] = set()
        #: cell -> set of (iteration, locks); cell is (token, element)
        self.writes: dict[tuple, set] = {}
        self.reads: dict[tuple, set] = {}


class ShadowRecorder:
    """Shared-access recorder threaded through the interpreter.

    Create one, pass it to :class:`repro.execmodel.interp.Interpreter`
    via ``shadow=``, run the program, then read ``conflicts``.
    """

    #: max elements one access record expands to before coarsening
    expand_cap = 4096
    #: max conflicts reported per loop execution (first in report order)
    max_conflicts_per_loop = 64

    def __init__(self):
        self.conflicts: list[RaceConflict] = []
        #: executions of parallel loops seen (doall only)
        self.loops_checked = 0
        self._ctxs: list[_LoopCtx] = []
        #: open contexts logging accesses now (an iteration under way,
        #: not suspended); kept by the lifecycle calls below so the
        #: per-access hooks need not rescan ``_ctxs``
        self._active: list[_LoopCtx] = []
        self.recording = False
        self._locks: frozenset = frozenset()
        #: strong refs to keyed objects so id() values stay unique
        self._pins: list[Any] = []
        self._tokens: dict[Any, int] = {}
        self._names: dict[int, str] = {}

    # -- identity ------------------------------------------------------

    def _token(self, obj: Any, name: str, *, per_name: bool = False) -> int:
        """Small stable token for a storage object (scope or ndarray).

        Scalars pass ``per_name=True``: the storage object is their
        *containing scope*, which holds many variables, so the cell key
        must include the name or every scalar in a scope would collapse
        into one cell (conflating, say, a read-only loop bound with a
        lock-protected counter).  Arrays key on the ndarray alone: two
        names aliasing the same storage (argument passing) must share a
        cell.
        """
        key = (id(obj), name) if per_name else id(obj)
        t = self._tokens.get(key)
        if t is None:
            t = len(self._pins)
            self._tokens[key] = t
            self._pins.append(obj)
            self._names[t] = name
        return t

    # -- loop lifecycle (called by the interpreter) --------------------

    def _refresh(self) -> None:
        self._active = [c for c in self._ctxs
                        if c.cur_iter is not None and not c.suspended]
        self.recording = bool(self._active)

    def open_loop(self, label: str) -> _LoopCtx:
        ctx = _LoopCtx(label)
        self._ctxs.append(ctx)
        self.loops_checked += 1
        return ctx

    def begin_worker(self, ctx: _LoopCtx, wscope: Scope) -> None:
        """A worker joined: register its loop-local storage as private."""
        ctx.wscope = wscope
        ctx.cur_iter = None
        for v in wscope.vars.values():
            if isinstance(v, FArray):
                ctx.private_data.add(id(v.data))
                self._pins.append(v.data)
        self._refresh()

    def begin_iteration(self, ctx: _LoopCtx, iteration: int) -> None:
        ctx.cur_iter = int(iteration)
        self._refresh()

    def suspend(self, ctx: _LoopCtx) -> None:
        ctx.suspended = True
        self._refresh()

    def resume(self, ctx: _LoopCtx) -> None:
        ctx.suspended = False
        self._refresh()

    def close_loop(self, ctx: _LoopCtx) -> None:
        assert self._ctxs and self._ctxs[-1] is ctx
        self._ctxs.pop()
        self._refresh()
        self.conflicts.extend(self._analyze(ctx))

    # -- locks ---------------------------------------------------------

    def acquire(self, name: str) -> None:
        self._locks = self._locks | {name}

    def release(self, name: str) -> None:
        self._locks = self._locks - {name}

    # -- access recording (called by the interpreter) ------------------

    def record_scalar(self, containing: Optional[Scope], name: str,
                      kind: str) -> None:
        """A scalar variable access; ``containing`` is the scope that
        holds the variable (None is treated as global/shared)."""
        for ctx in self._active:
            if containing is not None and _scope_under(containing,
                                                       ctx.wscope):
                continue  # loop-local: private by construction
            tok = self._token(containing if containing is not None
                              else self, name, per_name=True)
            self._log(ctx, (tok, None), kind)

    def record_array(self, arr: FArray, name: str, kind: str,
                     idx: Optional[tuple] = None,
                     specs: Optional[list] = None) -> None:
        """An array access: one element (``idx``, Fortran subscripts),
        a section (``specs`` as passed to ``FArray.slice_of``), or the
        whole array (neither)."""
        key = id(arr.data)
        cells = None
        for ctx in self._active:
            if key in ctx.private_data:
                continue
            if cells is None:
                tok = self._token(arr.data, name)
                if idx is not None:
                    cells = [(tok, tuple(int(i) for i in idx))]
                else:
                    elements = self._expand(arr, specs)
                    cells = ([(tok, _ALL)] if elements is None
                             else [(tok, e) for e in elements])
            for cell in cells:
                self._log(ctx, cell, kind)

    def _log(self, ctx: _LoopCtx, cell: tuple, kind: str) -> None:
        store = ctx.writes if kind == "w" else ctx.reads
        store.setdefault(cell, set()).add((ctx.cur_iter, self._locks))

    def _expand(self, arr: FArray,
                specs: Optional[list]) -> Optional[list[tuple]]:
        """Element subscript tuples of a section, or None to coarsen."""
        if arr.data.ndim == 0:
            return [()]
        axes = []
        count = 1
        for dim in range(arr.data.ndim):
            lo_bound = arr.lowers[dim]
            extent = arr.data.shape[dim]
            spec = specs[dim] if specs is not None else None
            if spec is None:
                rng = range(lo_bound, lo_bound + extent)
            elif isinstance(spec, tuple):
                lo, hi, stride = spec
                lo = lo_bound if lo is None else int(lo)
                hi = lo_bound + extent - 1 if hi is None else int(hi)
                step = 1 if stride is None else int(stride)
                rng = range(lo, hi + (1 if step > 0 else -1), step)
            else:
                rng = (int(spec),)
            count *= max(len(rng), 1)
            if count > self.expand_cap:
                return None
            axes.append(rng)
        return [tuple(t) for t in itertools.product(*axes)]

    # -- analysis ------------------------------------------------------

    def _analyze(self, ctx: _LoopCtx) -> list[RaceConflict]:
        """The loop's conflicts, at most ``max_conflicts_per_loop``.

        Cells are logged in execution order, which depends on how the
        iterations were dealt to workers, so every cell is scanned and
        the report is sorted (:func:`_report_order`) before it is cut:
        the same access sets give the same report at any processor
        count and under any hash seed.
        """
        out: list[RaceConflict] = []
        supercells = [c for c in
                      itertools.chain(ctx.writes, ctx.reads)
                      if c[1] == _ALL]
        for cell, writers in ctx.writes.items():
            pair = _conflicting_pair(writers, writers)
            if pair is not None:
                out.append(self._conflict(ctx, cell, "write-write", pair))
                continue
            readers = set(ctx.reads.get(cell, ()))
            # a supercell access to the same array touches every element
            for sc in supercells:
                if sc[0] == cell[0] and sc != cell:
                    readers |= ctx.reads.get(sc, set())
                    wpair = _conflicting_pair(
                        writers, ctx.writes.get(sc, set()))
                    if wpair is not None:
                        out.append(self._conflict(ctx, cell,
                                                  "write-write", wpair))
                        break
            else:
                pair = _conflicting_pair(writers, readers)
                if pair is not None:
                    out.append(self._conflict(ctx, cell,
                                              "read-write", pair))
        out.sort(key=_report_order)
        return out[:self.max_conflicts_per_loop]

    def _conflict(self, ctx: _LoopCtx, cell: tuple, kind: str,
                  pair: tuple[int, int]) -> RaceConflict:
        tok, element = cell
        return RaceConflict(
            loop=ctx.label, var=self._names.get(tok, "?"),
            element=None if element in (None, _ALL) else element,
            kind=kind, iterations=pair)

    def to_dict(self) -> dict:
        return {
            "loops_checked": self.loops_checked,
            "conflicts": [c.to_dict() for c in self.conflicts],
        }


def _scope_under(scope: Scope, wscope: Optional[Scope]) -> bool:
    """True if ``scope`` is ``wscope`` or nested anywhere below it."""
    if wscope is None:
        return False
    s: Optional[Scope] = scope
    while s is not None:
        if s is wscope:
            return True
        s = s.parent
    return False


def _report_order(c: RaceConflict) -> tuple:
    return (c.iterations, c.var, c.element is not None, c.element or (),
            c.kind)


def _conflicting_pair(a: set, b: set) -> Optional[tuple[int, int]]:
    """The smallest (i, j), i < j, of the iteration pairs from a×b with
    no common lock, or None.

    The smallest, not the first found: set iteration order follows
    insertion order (the schedule) and, for accesses that carry lock
    names, the string hash seed.  The common race-free case costs one
    scan that finds nothing.
    """
    for (i, locks_i) in a:
        for (j, locks_j) in b:
            # same iteration, or serialized by a shared critical section
            if i == j or locks_i & locks_j:
                continue
            return min((x, y) if x < y else (y, x)
                       for (x, locks_x) in a for (y, locks_y) in b
                       if x != y and not locks_x & locks_y)
    return None
