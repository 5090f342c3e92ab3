"""Sparse inference systems with structure-keyed factorization caching.

The dense formulation in ``inference.flow`` rebuilds an
``(blocks + observed [+ head]) x edges`` matrix row by Python row and
solves it cold for every function on every run — O(V*E) build work that
dominates once modules reach production size.  This module replaces it
with:

* a **COO -> CSR incidence build**: conservation rows, observation rows
  and the head row are assembled directly from the skeleton's edge list
  (same rows, same values, same order — the dense matrix and
  ``template.matrix.toarray()`` are elementwise identical);
* a **cached normal-equation factorization**: the matrix depends only on
  ``(skeleton digest, observation pattern)``, so its ``splu`` factor of
  ``G = A^T A`` is computed once per structure and reused for every
  function and every run that shares it — only the right-hand side
  changes;
* a **solution-quality gate**: the normal-equation solve is only accepted
  when the factorization is full-rank (checked via the LU diagonal) and
  the solution respects the nonnegativity bounds; otherwise the template
  falls back to the exact dense-oracle solver (``lsq_linear`` on the same
  matrix), so a fast-path answer is always within float noise of the
  oracle and a fallback answer is *bit-identical* to it.

Templates also carry the ``V x E`` inflow matrix, so count readback is one
sparse matvec instead of a Python double loop.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .. import telemetry
from .skeleton import CFGSkeleton, EdgeList

try:  # pragma: no cover - exercised via flow's scipy_missing fallback
    import scipy.sparse as _sp
    import scipy.sparse.linalg as _spl
    HAVE_SCIPY = True
except ImportError:  # pragma: no cover
    _sp = None
    _spl = None
    HAVE_SCIPY = False

# flow imports this module lazily (inside its sparse dispatch), so the
# top-level import here is acyclic.
from .flow import CONSERVATION_WEIGHT

#: Relative floor under which an LU pivot marks the system rank-deficient.
_RANK_TOL = 1e-10
#: Relative bound-violation tolerance before the fast path defers to the
#: oracle (tiny negative flows are float noise; large ones mean the
#: unconstrained optimum genuinely leaves the feasible region).
_NEG_TOL = 1e-9

#: Cache key: (skeleton digest, observed block indices, head row present).
TemplateKey = Tuple[str, Tuple[int, ...], bool]


class SystemTemplate:
    """One cached least-squares system: matrix, factorization, readback.

    Everything here is a pure function of ``(n_blocks, edges,
    obs_indices, has_head)`` — observation *values* never enter, which is
    what makes the cache safe: solving only ever reads the template.
    """

    __slots__ = ("key", "n_blocks", "n_edges", "obs_indices", "has_head",
                 "n_rows", "matrix", "matrix_t", "inflow", "factor",
                 "failure_reason")

    def __init__(self, key: TemplateKey, n_blocks: int, edges: EdgeList,
                 obs_indices: Tuple[int, ...], has_head: bool):
        if not HAVE_SCIPY:  # pragma: no cover - flow gates on HAVE_SCIPY
            raise RuntimeError("scipy is required for sparse inference")
        self.key = key
        self.n_blocks = n_blocks
        self.n_edges = len(edges)
        self.obs_indices = obs_indices
        self.has_head = has_head
        self.n_rows = n_blocks + len(obs_indices) + (1 if has_head else 0)

        rows: List[int] = []
        cols: List[int] = []
        data: List[float] = []
        # Conservation rows (one per block, weighted): inflow - outflow = 0.
        # Duplicate (row, col) entries sum on conversion, matching the
        # dense build's `+= / -=` (a self-loop nets to an explicit zero).
        inflow_rows: List[int] = []
        inflow_cols: List[int] = []
        for e, (src, dst) in enumerate(edges):
            if dst >= 0:
                rows.append(dst)
                cols.append(e)
                data.append(CONSERVATION_WEIGHT)
                inflow_rows.append(dst)
                inflow_cols.append(e)
            if src >= 0:
                rows.append(src)
                cols.append(e)
                data.append(-CONSERVATION_WEIGHT)
        # Observation rows: inflow of each observed block.
        dst_edges: Dict[int, List[int]] = {}
        for e, (_src, dst) in enumerate(edges):
            if dst >= 0:
                dst_edges.setdefault(dst, []).append(e)
        for k, i in enumerate(obs_indices):
            for e in dst_edges.get(i, ()):
                rows.append(n_blocks + k)
                cols.append(e)
                data.append(1.0)
        # Head row: the virtual SRC->entry flow (always edge 0).
        if has_head:
            rows.append(self.n_rows - 1)
            cols.append(0)
            data.append(1.0)

        matrix = _sp.coo_matrix(
            (np.asarray(data), (np.asarray(rows), np.asarray(cols))),
            shape=(self.n_rows, self.n_edges)).tocsr()
        self.matrix = matrix
        self.matrix_t = _sp.csr_matrix(matrix.T)
        self.inflow = _sp.coo_matrix(
            (np.ones(len(inflow_rows)),
             (np.asarray(inflow_rows, dtype=np.int64),
              np.asarray(inflow_cols, dtype=np.int64))),
            shape=(n_blocks, self.n_edges)).tocsr()

        # Factor the normal equations once.  A rank-deficient system has
        # infinitely many least-squares solutions and the normal equations
        # cannot pick the oracle's (the min-norm one), so those templates
        # permanently route to the oracle solver.
        self.factor: Optional[Any] = None
        self.failure_reason: Optional[str] = None
        gram = _sp.csc_matrix(self.matrix_t @ matrix)
        try:
            factor = _spl.splu(gram)
        except RuntimeError:
            # splu raises on *exactly* singular systems; near-singular ones
            # factor but fail the pivot-ratio check below.  Same diagnosis.
            self.failure_reason = "rank_deficient"
        else:
            diag = np.abs(factor.U.diagonal())
            if diag.size == 0 or diag.min() <= _RANK_TOL * max(
                    float(diag.max()), 1.0):
                self.failure_reason = "rank_deficient"
            else:
                self.factor = factor

    def rhs(self, obs_values: List[float],
            head_count: Optional[float]) -> np.ndarray:
        """Right-hand side for one set of observation values."""
        target = np.zeros(self.n_rows)
        if self.obs_indices:
            target[self.n_blocks:self.n_blocks + len(self.obs_indices)] = \
                obs_values
        if self.has_head:
            target[-1] = float(head_count if head_count is not None else 0.0)
        return target

    def solve_fast(self, target: np.ndarray) -> Optional[np.ndarray]:
        """Normal-equation solve via the cached factor.

        Returns ``None`` when this template cannot guarantee the oracle's
        answer — rank-deficient structure, or a solution that leaves the
        nonnegative orthant beyond float noise — in which case the caller
        must use :meth:`solve_oracle`.
        """
        if self.factor is None:
            return None
        x = self.factor.solve(self.matrix_t @ target)
        if x.min() < -_NEG_TOL * max(1.0, float(np.abs(target).max())):
            return None
        return np.maximum(x, 0.0)

    def solve_oracle(self, target: np.ndarray) -> np.ndarray:
        """The exact solver the dense path runs, on this same matrix."""
        from scipy.optimize import lsq_linear
        return lsq_linear(self.matrix.toarray(), target,
                          bounds=(0.0, np.inf), max_iter=200).x

    def __repr__(self) -> str:
        state = self.failure_reason or "factored"
        return (f"<SystemTemplate {self.n_rows}x{self.n_edges} {state} "
                f"{self.key[0][:12]}>")


class SolverCache:
    """Process-wide template cache keyed by :data:`TemplateKey`.

    ``capacity`` bounds memory on adversarial structure churn: the cache
    empties (and counts an eviction cycle) rather than growing without
    bound — solves are pure, so eviction only costs a rebuild.
    """

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self._templates: Dict[TemplateKey, SystemTemplate] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def template(self, skeleton: CFGSkeleton, obs_indices: Tuple[int, ...],
                 has_head: bool) -> SystemTemplate:
        return self.template_raw(skeleton.digest, skeleton.n_blocks,
                                 skeleton.edges, obs_indices, has_head)

    def template_raw(self, digest: str, n_blocks: int, edges: EdgeList,
                     obs_indices: Tuple[int, ...],
                     has_head: bool) -> SystemTemplate:
        """Lookup from the skeleton's raw parts (digest, size, edges)."""
        key: TemplateKey = (digest, obs_indices, has_head)
        entry = self._templates.get(key)
        if entry is not None:
            self.hits += 1
            telemetry.count("inference", "solver_cache_hit")
            return entry
        self.misses += 1
        telemetry.count("inference", "solver_cache_miss")
        if len(self._templates) >= self.capacity:
            self._templates.clear()
            self.evictions += 1
        entry = SystemTemplate(key, n_blocks, edges, obs_indices, has_head)
        self._templates[key] = entry
        return entry

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "size": len(self._templates)}

    def clear(self) -> None:
        self._templates.clear()

    def __len__(self) -> int:
        return len(self._templates)

    def __repr__(self) -> str:
        return (f"<SolverCache {len(self._templates)} templates "
                f"hits={self.hits} misses={self.misses}>")


def solve_raw(cache: SolverCache, digest: str, n_blocks: int,
              edges: EdgeList, obs_indices: Tuple[int, ...],
              obs_values: List[float], head_count: Optional[float]
              ) -> Tuple[float, np.ndarray, Optional[str]]:
    """Solve one system from raw parts via the cache.

    Returns ``(source_flow, per-block inflow, fallback_reason)``.  Pure in
    its inputs: identical on cache hits and misses.
    """
    template = cache.template_raw(digest, n_blocks, edges, obs_indices,
                                  head_count is not None)
    target = template.rhs(obs_values, head_count)
    reason: Optional[str] = None
    solution = template.solve_fast(target)
    if solution is None:
        reason = template.failure_reason or "negative_flow"
        solution = template.solve_oracle(target)
    inflow = np.maximum(template.inflow @ solution, 0.0)
    return float(solution[0]), inflow, reason


#: The process-wide cache used when no explicit cache is provided.
#: Templates are observation-value-independent, so sharing across modules,
#: runs, and PGO variants is always sound.
_DEFAULT_CACHE = SolverCache()


def default_cache() -> SolverCache:
    return _DEFAULT_CACHE
