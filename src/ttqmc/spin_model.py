"""Transverse-field Ising model: lattices, propagators, and exact energies.

The Hamiltonian is H = -g sum_i sigma^x_i - sum_<ij> sigma^z_i sigma^z_j.
One imaginary-time step uses the symmetric split

    exp(-dtau H) ~= B_half * B_bonds * B_half        (error O(dtau^3))

where B_half = (exp(g dtau sigma^x / 2))^{otimes d} and B_bonds factorizes
exactly, bond by bond, through the discrete Hubbard-Stratonovich identity

    exp(dtau z_i z_j) = exp(-dtau) * (1/2) sum_{x=+-1} exp(x lam (z_i + z_j)),
    cosh(2 lam) = exp(2 dtau).

Every site index is a *chain position*: a lattice is its bond list over the
one chain the trial's tensor train runs along.  Dense basis vectors put chain
position 0 in the most significant bit, with i=0 meaning sigma^z = +1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AnalyticCheckError, ConfigError, DenseCapError, EigensolverError

DENSE_H_CAP = 14


@dataclass(frozen=True)
class Lattice:
    """Site count, geometry, and the bonds <p,q> as pairs of chain positions.

    The trial's tensor train runs over one fixed chain of d sites.  A grid or
    cylinder (n0, n1) is snaked into it column by column: site (a, b) sits at
    chain position b*n0 + a on an even column b and b*n0 + n0-1-a on an odd
    one.  Each pair in ``chain_bonds`` has p < q, and the list is in
    processing order: by right end q, and for equal q the shorter bond first
    (key (q, -p)).  That order lets the walker engine's left environment
    advance bond by bond, and puts a periodic wrap bond (0, d-1) last, so it
    invalidates no right partial that a later bond needs.
    """

    d: int
    kind: str
    boundary: str
    chain_bonds: tuple


def build_lattice(kind, dims, boundary):
    """Construct a Lattice; an unsupported request raises ConfigError naming its field.

    Supported combinations:
      * chain, dims (d,), boundary 'open' or 'periodic' (d=2 periodic rejected);
      * grid, dims (n0, n1), boundary 'open';
      * cylinder, dims (n0, n1), boundary 'periodic' meaning periodic on the
        n0 axis and open on the n1 axis.
    """
    dims = tuple(dims)
    if any(x < 1 for x in dims):
        raise ConfigError("lattice_dims", f"dims must be positive, got {dims}")

    if kind == "chain":
        if len(dims) != 1:
            raise ConfigError("lattice_dims", f"chain expects one dim, got {dims}")
        d = dims[0]
        if boundary not in ("open", "periodic"):
            raise ConfigError("lattice_boundary", f"unsupported chain boundary {boundary!r}")
        bonds = [(p, p + 1) for p in range(d - 1)]
        if boundary == "periodic":
            if d < 3:
                raise ConfigError(
                    "lattice_dims", "periodic chain needs d >= 3 (d=2 would double the bond)"
                )
            bonds.append((0, d - 1))

    elif kind in ("grid", "cylinder"):
        if len(dims) != 2:
            raise ConfigError("lattice_dims", f"{kind} expects two dims, got {dims}")
        n0, n1 = dims
        if kind == "grid" and boundary != "open":
            raise ConfigError("lattice_boundary", f"unsupported grid boundary {boundary!r}")
        if kind == "cylinder":
            if boundary != "periodic":
                raise ConfigError("lattice_boundary", f"unsupported cylinder boundary {boundary!r}")
            if n0 < 3:
                raise ConfigError("lattice_dims", "cylinder ring axis needs at least 3 sites")
        d = n0 * n1
        pos = lambda a, b: b * n0 + (a if b % 2 == 0 else n0 - 1 - a)  # noqa: E731 - snake order
        bonds = []
        for a in range(n0):
            for b in range(n1):
                if b + 1 < n1:
                    bonds.append((pos(a, b), pos(a, b + 1)))
                if a + 1 < n0:
                    bonds.append((pos(a, b), pos(a + 1, b)))
                elif kind == "cylinder":
                    bonds.append((pos(0, b), pos(a, b)))

    else:
        raise ConfigError("lattice_kind", f"unsupported lattice kind {kind!r}")

    pairs = (tuple(sorted(b)) for b in bonds)
    return Lattice(d, kind, boundary, tuple(sorted(pairs, key=lambda b: (b[1], -b[0]))))


def one_body_matrix(g, dtau):
    """exp(g dtau sigma^x / 2) = cosh(g dtau/2) I + sinh(g dtau/2) sigma^x."""
    c, s = np.cosh(g * dtau / 2.0), np.sinh(g * dtau / 2.0)
    return np.array([[c, s], [s, c]])


def hs_lambda(dtau):
    """The Hubbard-Stratonovich constant: cosh(2 lam) = exp(2 dtau), lam > 0.

    Evaluated as lam = log(y + sqrt(y^2 - 1))/2 with y^2 - 1 via expm1 so the
    small-dtau limit lam ~ sqrt(dtau) keeps full relative precision.
    """
    if dtau <= 0:
        raise ValueError(f"dtau must be positive, got {dtau}")
    return 0.5 * np.log(np.exp(2.0 * dtau) + np.sqrt(np.expm1(4.0 * dtau)))


@dataclass(frozen=True)
class PropagatorSet:
    """Per-step propagator ingredients for fixed (g, dtau)."""

    g: float
    dtau: float
    one_body_half: np.ndarray = field(repr=False)
    one_body_full: np.ndarray = field(repr=False)
    lam: float
    bond_prefactor: float

    @classmethod
    def build(cls, g, dtau):
        # dtau = 0 is the degenerate identity propagator (useful in tests).
        # Floats first: NumPy cannot take exp of an int past int64.
        g, dtau = float(g), float(dtau)
        if dtau < 0:
            raise ValueError(f"dtau must be non-negative, got {dtau}")
        return cls(
            g=g,
            dtau=dtau,
            one_body_half=one_body_matrix(g, dtau),
            one_body_full=one_body_matrix(g, 2.0 * dtau),
            lam=float(hs_lambda(dtau)) if dtau > 0 else 0.0,
            bond_prefactor=float(np.exp(-dtau)),
        )

    def bond_site_factors(self, x):
        """Per-site diagonal of exp(x lam sigma^z) for a field value x = +-1."""
        return np.array([np.exp(x * self.lam), np.exp(-x * self.lam)])


def _zz_diagonal(lattice):
    """-sum_<pq> sigma^z_p sigma^z_q on every basis state, from each bond's bit parity."""
    d = lattice.d
    states = np.arange(2 ** d)
    diag = np.zeros(2 ** d)
    for p, q in lattice.chain_bonds:
        diag += 2.0 * (((states >> (d - 1 - p)) ^ (states >> (d - 1 - q))) & 1) - 1.0
    return diag


LANCZOS_MAX_ITER = 100
LANCZOS_RTOL = 1e-13


def lanczos_ground(lattice, g):
    """Lowest eigenpair (energy, normalized vector) of the TFI Hamiltonian.

    Matrix-free: H v = diag v - g sum_m v[i XOR 2^m], where the diagonal
    comes from each bond's bit parity and the flip of bit m reverses the
    length-2 axis of v viewed as (2^(d-1-m), 2, 2^m).  The start is the
    uniform vector: for g > 0 every off-diagonal is -g < 0 and H is
    irreducible, so the ground state is entrywise positive (Perron-Frobenius)
    and overlaps it.  At g = 0 the iteration returns the even combination of
    the lowest classical configurations.  The Krylov basis stays in the even
    spin-flip sector, so odd excitations are never seen.  It is fully
    reorthogonalized (Gram-Schmidt applied twice).  The iteration stops when
    the lowest Ritz pair's residual |beta_k y_k| falls to LANCZOS_RTOL
    |theta|; reaching LANCZOS_MAX_ITER first raises EigensolverError.
    """
    d = lattice.d
    diag = _zz_diagonal(lattice)
    n = diag.size
    basis = np.empty((LANCZOS_MAX_ITER + 1, n))
    basis[0] = n ** -0.5
    alpha, beta = [], []
    theta = np.inf
    for k in range(LANCZOS_MAX_ITER):
        v = basis[k]
        w = diag * v
        for m in range(d):
            w3 = w.reshape(-1, 2, 1 << m)
            w3 -= g * v.reshape(-1, 2, 1 << m)[:, ::-1]
        alpha.append(v @ w)
        for _ in range(2):
            w -= basis[: k + 1].T @ (basis[: k + 1] @ w)
        b = float(np.linalg.norm(w))
        vals, vecs = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        theta, y = float(vals[0]), vecs[:, 0]
        if abs(b * y[-1]) <= LANCZOS_RTOL * abs(theta):
            psi = y @ basis[: k + 1]
            return theta, psi / np.linalg.norm(psi)
        beta.append(b)
        basis[k + 1] = w / b
    raise EigensolverError(d, LANCZOS_MAX_ITER, theta)


def dense_hamiltonian(lattice, g, cap=DENSE_H_CAP):
    """Dense 2^d x 2^d TFI Hamiltonian in the fixed basis convention."""
    if lattice.d > cap:
        raise DenseCapError(lattice.d, cap)
    states = np.arange(2 ** lattice.d)
    H = np.diag(_zz_diagonal(lattice))
    for m in range(lattice.d):
        H[states, states ^ (1 << m)] = -g
    return H


_ANALYTIC_VALIDATED = False


def _validate_analytic():
    """One-time cross-check of the free-fermion energy against ``lanczos_ground``."""
    for d in (8, 10, 12):
        lat = build_lattice("chain", (d,), "periodic")
        e0, _ = lanczos_ground(lat, 1.0)
        formula = _analytic_chain_energy_raw(d, 1.0)
        if abs(e0 - formula) > 1e-9:
            raise AnalyticCheckError(d, formula, e0)


def _analytic_chain_energy_raw(d, g):
    k = (2.0 * np.arange(d) + 1.0) * np.pi / d
    return float(-np.sum(np.sqrt(1.0 + g * g - 2.0 * g * np.cos(k))))


def analytic_chain_energy(d, g):
    """Exact ground-state energy of the periodic TFI chain.

    Free-fermion (Jordan-Wigner) solution in the even-parity sector,

        E_0 = - sum_{m=0}^{d-1} sqrt(1 + g^2 - 2 g cos k_m),
        k_m = (2m + 1) pi / d.

    The first call in a process cross-validates the formula against a
    Lanczos solve at d in {8, 10, 12} and g = 1 (to 1e-9), raising
    AnalyticCheckError on a mismatch.
    """
    global _ANALYTIC_VALIDATED
    if d < 3:
        raise ValueError("periodic chain needs d >= 3")
    if not _ANALYTIC_VALIDATED:
        _validate_analytic()
        _ANALYTIC_VALIDATED = True
    return _analytic_chain_energy_raw(d, g)
