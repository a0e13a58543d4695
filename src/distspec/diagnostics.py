"""White-box local statistics linking neighborhoods to eigenvector signal.

These reports use the hidden type assignment, so they live apart from the
detection path: per-vertex shell type counts, read off the distance
matrix as ``D^ell @ onehot(sigma)``, are projected on the model
eigenvectors, their normalized second moments estimated, and the
resulting vectors compared against the eigenvectors of that same matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SparseGraph, distance_matrix
from .model import SpectralProfile
from .spectral import top_eigenpairs
from .util import derive_seed


@dataclass(frozen=True, eq=False)
class LocalMomentReport:
    """Second moments of eigenvector-projected shell counts.

    ``diag_raw[k]`` is the mean of <phi_k, Y_ell(v)>^2 over vertices,
    ``diag_norm[k]`` the same divided by mu_k^(2*ell); ``cross_raw`` holds
    the mixed products for j != k.  ``alignment[k]`` is the cosine between
    the matrix eigenvector k and the projected-count vector, and
    ``rho_reference`` the predicted limit 1/(r*(tau-1)) of the normalized
    second moment for the informative directions (uniform prior only).
    """

    diag_raw: np.ndarray
    diag_norm: np.ndarray
    cross_raw: np.ndarray
    alignment: np.ndarray
    rho_reference: float
    ell: int


def local_moment_report(
    g: SparseGraph,
    sigma: np.ndarray,
    profile: SpectralProfile,
    ell: int,
    seed: int = 0,
) -> LocalMomentReport:
    """Compute the shell-count moments and their alignment with the spectrum.

    The report builds ``D^ell`` for its own solve; row v of ``D^ell`` is
    v's last frontier, so the shell type counts are ``D^ell @ onehot(sigma)``.
    """
    r = profile.params.r
    n = g.n
    dmat = distance_matrix(g, ell)
    counts = dmat.matvec(np.eye(r)[sigma])
    eigenpairs = top_eigenpairs(dmat, n, k=profile.signal_pairs(n),
                                seed=derive_seed(seed, "diag-eig"))
    proj = counts @ profile.phi.T        # column k holds <phi_k, Y_ell(v)>
    diag_raw = (proj**2).mean(axis=0)
    mu_sq = profile.mu.astype(np.float64) ** (2 * ell)
    diag_norm = np.divide(diag_raw, mu_sq,
                          out=np.full_like(diag_raw, np.inf), where=mu_sq > 0)
    cross_raw = (proj.T @ proj) / n
    np.fill_diagonal(cross_raw, 0.0)

    alignment = np.zeros(min(len(eigenpairs), r))
    for k in range(len(alignment)):
        nk = proj[:, k]
        denom = np.linalg.norm(eigenpairs[k].vector) * np.linalg.norm(nk)
        alignment[k] = abs(float(np.dot(eigenpairs[k].vector, nk))) / denom if denom else 0.0

    rho_ref = float("nan")
    if profile.params.uniform_pi and profile.tau > 1.0:
        rho_ref = 1.0 / (r * (profile.tau - 1.0))
    return LocalMomentReport(
        diag_raw=diag_raw,
        diag_norm=diag_norm,
        cross_raw=cross_raw,
        alignment=alignment,
        rho_reference=rho_ref,
        ell=ell,
    )
