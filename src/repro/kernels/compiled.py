"""The numba kernel backend: jit-compiled loops, lazily compiled.

Third interchangeable compute tier next to the pure-Python reference and
the numpy broadcasts.  Each op is the *reference loop* re-expressed over
contiguous float64 arrays and compiled with ``numba.njit`` on first call
(`fastmath` stays off), so the bit-identity contract holds by
construction:

* dominance tests are the same exact comparisons;
* partial scores accumulate strictly left-to-right
  (``s = 0.0; s += w*x``), never a reassociated reduction;
* set-producing ops (cover carve, grid carve, antichain) keep the
  reference orchestration in Python — sorted-set projection order and
  all — and delegate only the inner dominance scans to jitted kernels.

Compilation is **lazy twice over**: the module imports without numba
(``HAS_NUMBA`` is probed via ``find_spec``, numba itself is only imported
inside the first kernel call), and each jitted function is compiled the
first time its op runs.  When numba is absent the backend is simply not
registered and the :class:`~repro.kernels.registry.KernelRegistry`
resolves ``numba`` requests per op down to numpy/python with a
once-per-process warning — warn-and-skip, never a hard failure.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from importlib.util import find_spec
from math import ceil

from repro.kernels.pointset import HAS_NUMPY, PointSet
from repro.kernels.reference import carve_projections
from repro.kernels.types import Cell, Point, as_point

try:  # pragma: no cover - exercised implicitly on import
    HAS_NUMBA = HAS_NUMPY and find_spec("numba") is not None
except (ImportError, ValueError):  # pragma: no cover - broken metadata
    HAS_NUMBA = False

if HAS_NUMPY:
    import numpy as np

NEG_INF = float("-inf")

#: Lazily-populated cache of jitted functions, keyed by kernel name.
_JITTED: dict[str, Callable] = {}


def _jit(fn: Callable) -> Callable:
    """The njit-compiled form of ``fn``, compiled once per process."""
    compiled = _JITTED.get(fn.__name__)
    if compiled is None:
        import numba

        compiled = numba.njit(cache=False, fastmath=False)(fn)
        _JITTED[fn.__name__] = compiled
    return compiled


def _arr(points):
    """Any supported operand as an ``(n, e)`` float64 C-contiguous array."""
    if isinstance(points, PointSet):
        return np.ascontiguousarray(points.array)
    array = np.asarray(points, dtype=np.float64)
    if array.ndim == 1:
        array = array.reshape(0, 0) if array.size == 0 else array.reshape(1, -1)
    return np.ascontiguousarray(array)


# ----------------------------------------------------------------------
# Jitted kernels (plain functions here; compiled on first use).
# Every loop mirrors repro.kernels.reference line for line.
# ----------------------------------------------------------------------
def _k_any_weak(arr, q):
    """True if some row weakly dominates q (row >= q componentwise)."""
    for i in range(arr.shape[0]):
        ok = True
        for j in range(arr.shape[1]):
            if not arr[i, j] >= q[j]:
                ok = False
                break
        if ok:
            return True
    return False


def _k_weak_mask(arr, q):
    n = arr.shape[0]
    out = np.zeros(n, dtype=np.bool_)
    for i in range(n):
        ok = True
        for j in range(arr.shape[1]):
            if not arr[i, j] >= q[j]:
                ok = False
                break
        out[i] = ok
    return out


def _k_strict_mask(arr, q):
    """Per-row mask: q strictly dominates the row (q >= row, q != row)."""
    n = arr.shape[0]
    out = np.zeros(n, dtype=np.bool_)
    for i in range(n):
        ok = True
        strict = False
        for j in range(arr.shape[1]):
            if not arr[i, j] <= q[j]:
                ok = False
                break
            if arr[i, j] != q[j]:
                strict = True
        out[i] = ok and strict
    return out


def _k_skyline(arr):
    """Kept indices of the incremental-insertion skyline (reference order)."""
    n = arr.shape[0]
    e = arr.shape[1]
    kept = np.empty(n, dtype=np.int64)
    k = 0
    for i in range(n):
        dominated = False
        for t in range(k):
            row = kept[t]
            ok = True
            for j in range(e):
                if not arr[row, j] >= arr[i, j]:
                    ok = False
                    break
            if ok:
                dominated = True
                break
        if dominated:
            continue
        m = 0
        for t in range(k):
            row = kept[t]
            ok = True
            strict = False
            for j in range(e):
                if not arr[row, j] <= arr[i, j]:
                    ok = False
                    break
                if arr[row, j] != arr[i, j]:
                    strict = True
            if not (ok and strict):
                kept[m] = row
                m += 1
        k = m
        kept[k] = i
        k += 1
    return kept[:k]


def _k_scores_plain(arr):
    n = arr.shape[0]
    out = np.zeros(n, dtype=np.float64)
    for i in range(n):
        s = 0.0
        for j in range(arr.shape[1]):
            s += arr[i, j]
        out[i] = s
    return out


def _k_scores_weighted(arr, weights):
    n = arr.shape[0]
    width = min(arr.shape[1], weights.shape[0])
    out = np.zeros(n, dtype=np.float64)
    for i in range(n):
        s = 0.0
        for j in range(width):
            s += weights[j] * arr[i, j]
        out[i] = s
    return out


def _k_max(values):
    best = NEG_INF
    for i in range(values.shape[0]):
        if values[i] > best:
            best = values[i]
    return best


def _k_cross_max(left, right):
    best = NEG_INF
    for i in range(left.shape[0]):
        l_val = left[i]
        for j in range(right.shape[0]):
            if l_val + right[j] > best:
                best = l_val + right[j]
    return best


def _k_cell_assign(arr, resolution):
    n = arr.shape[0]
    e = arr.shape[1]
    out = np.empty((n, e), dtype=np.int64)
    for i in range(n):
        for j in range(e):
            index = int(ceil(arr[i, j] * resolution)) - 1
            if index < 0:
                index = 0
            elif index > resolution - 1:
                index = resolution - 1
            out[i, j] = index
    return out


def _k_antichain_mask(arr):
    """Keep mask over unique rows: no other row weakly dominates this one."""
    n = arr.shape[0]
    out = np.ones(n, dtype=np.bool_)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            ok = True
            for c in range(arr.shape[1]):
                if not arr[j, c] >= arr[i, c]:
                    ok = False
                    break
            if ok:
                out[i] = False
                break
    return out


class CompiledBackend:
    """Numba-jitted kernels with reference semantics.

    Construction is cheap and import-safe; the first call of each op
    pays one jit compilation (cached for the process).  Instances are
    only registered when :data:`HAS_NUMBA` is true.
    """

    name = "numba"

    # ------------------------------------------------------------------
    # Dominance primitives
    # ------------------------------------------------------------------
    def dominates_any(self, points, q: Sequence[float]) -> bool:
        arr = _arr(points)
        if not arr.shape[0]:
            return False
        target = np.asarray(tuple(q), dtype=np.float64)
        return bool(_jit(_k_any_weak)(arr, target))

    def weak_dominance_mask(self, points, q: Sequence[float]):
        arr = _arr(points)
        if not arr.shape[0]:
            return np.zeros(0, dtype=bool)
        target = np.asarray(tuple(q), dtype=np.float64)
        return _jit(_k_weak_mask)(arr, target)

    def strict_dominance_mask(self, points, q: Sequence[float]):
        arr = _arr(points)
        if not arr.shape[0]:
            return np.zeros(0, dtype=bool)
        target = np.asarray(tuple(q), dtype=np.float64)
        return _jit(_k_strict_mask)(arr, target)

    # ------------------------------------------------------------------
    # Skylines
    # ------------------------------------------------------------------
    def skyline_filter(self, points) -> list[int]:
        arr = _arr(points)
        if arr.shape[0] <= 1:
            return list(range(arr.shape[0]))
        return _jit(_k_skyline)(arr).tolist()

    # ------------------------------------------------------------------
    # Partial scores
    # ------------------------------------------------------------------
    def cover_corner_scores(
        self, points, weights: Sequence[float] | None = None
    ):
        arr = _arr(points)
        if not arr.shape[0]:
            return np.zeros(0, dtype=np.float64)
        if weights is None:
            return _jit(_k_scores_plain)(arr)
        w = np.asarray(tuple(float(v) for v in weights), dtype=np.float64)
        return _jit(_k_scores_weighted)(arr, w)

    def max_corner_score(
        self, points, weights: Sequence[float] | None = None
    ) -> float:
        arr = _arr(points)
        if not arr.shape[0]:
            return NEG_INF
        return float(_jit(_k_max)(self.cover_corner_scores(arr, weights)))

    def cross_product_max(self, left, right) -> float:
        left_vals = np.asarray(
            [float(v) for v in left], dtype=np.float64
        )
        right_vals = np.asarray(
            [float(v) for v in right], dtype=np.float64
        )
        if not left_vals.size or not right_vals.size:
            return NEG_INF
        return float(_jit(_k_cross_max)(left_vals, right_vals))

    # ------------------------------------------------------------------
    # Cover maintenance (FR::UpdateCR / FR*::UpdateCR)
    # ------------------------------------------------------------------
    def cover_carve(
        self, cover, observed, *, skyline_mode: bool = False
    ) -> list[Point]:
        """Reference orchestration; a jitted scan finds the carved points."""
        current = [as_point(p) for p in _arr(cover).tolist()] \
            if not isinstance(cover, list) else [as_point(p) for p in cover]
        for raw in observed:
            y = as_point(raw)
            if not current:
                break
            mask = _jit(_k_weak_mask)(
                np.asarray(current, dtype=np.float64),
                np.asarray(y, dtype=np.float64),
            )
            if mask.any():
                current = [
                    p for p, hit in zip(current, mask) if not hit
                ] + carve_projections(
                    [p for p, hit in zip(current, mask) if hit], y, skyline_mode
                )
        return current

    # ------------------------------------------------------------------
    # Grid kernels (aFR)
    # ------------------------------------------------------------------
    def grid_cell_assign(self, points, resolution: int):
        arr = _arr(points)
        if not arr.shape[0]:
            return np.zeros((0, arr.shape[1]), dtype=np.int64)
        return _jit(_k_cell_assign)(arr, resolution)

    def antichain(self, cells) -> list[Cell]:
        rows = cells.tolist() if hasattr(cells, "tolist") else cells
        unique = sorted({tuple(int(v) for v in row) for row in rows})
        if len(unique) <= 1:
            return unique
        # Integer cells are exact in float64 (coordinates are tiny), so
        # the float dominance scan below is exact too.
        arr = np.asarray(unique, dtype=np.float64)
        keep = _jit(_k_antichain_mask)(arr)
        return [cell for cell, flag in zip(unique, keep) if flag]

    def grid_carve(
        self, cells, point: Sequence[float], resolution: int
    ) -> tuple[list[Cell], bool]:
        m = tuple(
            min(max(ceil(v * resolution), 0), resolution) for v in point
        )
        raw = cells.tolist() if hasattr(cells, "tolist") else cells
        rows = [tuple(int(v) for v in row) for row in raw]
        if not rows:
            return rows, False
        arr = np.asarray(rows, dtype=np.float64)
        target = np.asarray(m, dtype=np.float64)
        mask = _jit(_k_weak_mask)(arr, target)
        if not mask.any():
            return rows, False
        dimension = len(m)
        removed = [c for c, hit in zip(rows, mask) if hit]
        survivors = [c for c, hit in zip(rows, mask) if not hit]
        projected: set[Cell] = set()
        for cell in removed:
            for axis in range(dimension):
                slid = list(cell)
                slid[axis] = m[axis] - 1
                if all(coord >= 0 for coord in slid):
                    projected.add(tuple(slid))
        fresh = self.antichain(sorted(projected))
        if survivors and fresh:
            surv_arr = np.asarray(survivors, dtype=np.float64)
            fresh = [
                c for c in fresh
                if not _jit(_k_any_weak)(
                    surv_arr, np.asarray(c, dtype=np.float64)
                )
            ]
        return survivors + fresh, True
