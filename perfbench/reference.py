"""A fixed reference kernel: how fast the host runs around each repetition.

On a shared host the speed of a core moves by tens of percent over
seconds to minutes (other tenants' memory traffic and hyperthreads), and
a whole 30 s run can sit in a slow or a fast stretch.  The benchmark
runs this kernel right before and right after every repetition, on the
same CPU, and reports repetition times in units of the kernel's time
(see ``run.end_to_end``), so that a slow stretch slows both and cancels.

The kernel does the kinds of work distspec's layers do, with numpy,
scipy and plain Python only, so no change to distspec changes it:

- a dense Bernoulli block and its nonzeros (the sampler's row blocks);
- a sparse matrix cube (the ``D^ell`` build);
- sparse matrix-vector products (the eigensolver);
- a breadth-first search over Python adjacency lists (the traversals).

Every call does the same work; :meth:`Reference.check` compares each
call's checksum with the first one's.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

# Nominal length of one kernel call, which sets the unit of wall_s: the
# kernel's median between repetitions on the 2-core Xeon the benchmark
# was tuned on (0.155 to 0.19 s from run to run), so that wall_s there
# reads close to plain seconds.
REF_S = 0.17

N = 5000            # vertices of the reference graph
DEGREE = 6.0        # mean degree
BLOCK_ROWS = 800    # rows of the Bernoulli block
MATVECS = 30
BFS_SOURCES = 18


class Reference:
    """The kernel and its fixed inputs; call it to time one run of it."""

    def __init__(self):
        import scipy.sparse as sp

        rng = np.random.default_rng(20181114)
        m = int(N * DEGREE / 2)
        rows, cols = rng.integers(0, N, size=(2, m))
        a = sp.coo_matrix((np.ones(m), (rows, cols)), shape=(N, N)).tocsr()
        a = ((a + a.T) > 0).astype(np.float64).tocsr()
        self.adj = a
        self.lists = [a.indices[a.indptr[v]:a.indptr[v + 1]].tolist() for v in range(N)]
        self.expected = None
        self.mismatches = 0

    def __call__(self) -> float:
        start = time.perf_counter()
        checksum = self._work()
        elapsed = time.perf_counter() - start
        if self.expected is None:
            self.expected = checksum
        elif checksum != self.expected:
            self.mismatches += 1
        return elapsed

    def _work(self) -> tuple:
        coins = np.random.default_rng(1).random((BLOCK_ROWS, N)) < DEGREE / N
        hits = len(np.nonzero(coins)[0])
        cube = self.adj @ self.adj @ self.adj
        cube.data[:] = 1.0
        x = np.ones(N)
        for _ in range(MATVECS):
            x = cube @ x
            x /= np.linalg.norm(x)
        reached = sum(self._bfs(s) for s in range(0, N, N // BFS_SOURCES))
        return hits, cube.nnz, float(x.sum()), reached

    def _bfs(self, source: int) -> int:
        lists = self.lists
        seen = {source}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for w in lists[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen)

    def check(self) -> list:
        """Failed checks: calls whose checksum differs from the first call's."""
        if self.mismatches:
            return [f"reference kernel gave a different checksum in {self.mismatches} call(s)"]
        return []
