"""
Frequency-domain physics: transfer matrices, port-pair transmission and
asymmetry coefficients, thermal occupations, output spectra, homodyne
quadrature coefficients, and amplification/SNR spectra.

One resolvent appears here, Gamma(w) = L (i w s - M)^{-1} L - I, with two
per-channel signatures s (_channel_signature). Interference coefficients
(transmissions, asymmetries, quadrature coefficients) use Lambda, which
alternates -1, +1 over the doubled channels. Measured output power spectra
use the causal s = -I, the resolvent (-i w I - M)^{-1} that a time-domain
simulation of the same Langevin system produces. Every public function here
gates the model (model.require_stable) before it solves; SnrSolver leaves
that to its callers.
"""

from __future__ import annotations

import copy
import itertools
import math
import sys
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

import numpy as np

from . import numerics
from .model import (
    ConfigError,
    SystemModel,
    build_drift_matrix,
    check_index,
    input_coupling_matrix,
    require_stable,
)

if TYPE_CHECKING:
    from numpy.typing import NDArray

__all__ = [
    "RESONANCE_PROBE_OFFSET",
    "resonance_probe_frequency",
    "ASYMMETRY_PAIRS",
    "transfer_matrices",
    "phase_grid",
    "transmission",
    "asymmetry",
    "pair_asymmetry",
    "port_columns",
    "asymmetry_pair",
    "thermal_occupation",
    "occupations",
    "quadrature_coefficients",
    "output_spectrum",
    "SnrSolver",
    "snr_spectrum",
]

#: Offset used when probing "at the low-mode resonance". Exactly on
#: resonance the two low-mode susceptibilities coincide and every low-mode
#: output row-pair sum cancels identically (the intracavity field exactly
#: replays the input), which makes the counter-propagating coefficients
#: vanish 0/0-style. Evaluating a small fraction of the low-mode linewidth
#: inside the peak recovers the limiting interference behavior.
RESONANCE_PROBE_OFFSET = 1e-6


def resonance_probe_frequency() -> float:
    """Probe frequency just inside the low-mode resonance omega = 1 (see module note)."""
    return 1.0 - RESONANCE_PROBE_OFFSET


def _channel_signature(n_modes: int, causal: bool = False) -> NDArray[np.float64]:
    """The resolvent's signature s: Lambda = (-1, +1, ...) over the doubled channels,
    or -1 on every channel if causal."""
    return np.full(2 * n_modes, -1.0) if causal else np.tile([-1.0, 1.0], n_modes)


def transfer_matrices(
    model: SystemModel, omegas, causal: bool = False
) -> Iterator[NDArray[np.complex128]]:
    """
    Gated input-output transfer matrices Gamma(w) = L (i w s - M)^{-1} L - I over
    a grid, as consecutive stacks of frequencies (see _BLOCK_ENTRIES). s is Lambda
    by default, or the causal -I of the time-domain convention (see
    _channel_signature); L carries sqrt(kappa) per channel.
    """
    m = build_drift_matrix(model)
    require_stable(m)
    signature = _channel_signature(model.n_modes, causal)
    return _resolvent_blocks(m, input_coupling_matrix(model), omegas, signature)


#: Points per stacked inverse: as many as fit in this many matrix entries (256 KB of
#: complex), but at least 16: 455 for a 6x6 three-mode system, 16 for an 80x80 chain.
#: The f-map's pole-residue coarse scans block cells by their own budget (_SCAN_ENTRIES).
_BLOCK_ENTRIES = 128 * 128
#: SnrSolver.scan trusts a cell only if cond_1 of its eigenvector matrix is below this bound
#: and the exact kernel's rcond provably exceeds _RCOND_MARGIN (ten times the solve's floor)
#: at every grid point, so that no cell the floor refuses escapes the exact scan.
_EIGVEC_COND_LIMIT = 1e4
_RCOND_MARGIN = 10.0 * numerics._RCOND_FLOOR
#: Entries (cells x grid points x n) per block of pole-residue coarse scans, 1 MB of
#: complex: 27 cells of a three-mode system over 401 points. Blocks are independent,
#: so their size moves no bit.
_SCAN_ENTRIES = 1 << 16


def _resolvent_blocks(
    drift, ell, omegas, signature, rows=slice(None)
) -> Iterator[NDArray[np.complex128]]:
    """
    Rows `rows` of L (i w diag(s) - M)^{-1} L - I at each w of `omegas`, s the
    `signature`, one stacked checked inverse per block. `drift` is one M for every
    w, a stack of one M per w, or a function called on each block's slice of the
    grid, in order, that builds its stack. L is diagonal (input_coupling_matrix), so
    with l its diagonal the rows are (A^{-1}[rows] * l) * l[rows] - I[rows]: the
    same bits as the two dense products, each of whose entries has one nonzero term.
    """
    omegas = np.asarray(omegas, dtype=float)
    eye = np.eye(ell.shape[0])
    l = ell.diagonal()
    step = max(16, _BLOCK_ENTRIES // len(ell) ** 2)
    for start in range(0, len(omegas), step):
        block = slice(start, start + step)
        m = drift(block) if callable(drift) else drift if drift.ndim == 2 else drift[block]
        diagonals = 1j * np.multiply.outer(omegas[block], signature)
        inverse = numerics.invert(diagonals[:, :, None] * eye - m)
        yield (inverse[..., rows, :] * l) * l[rows, None] - eye[rows]


def phase_grid(
    model: SystemModel, omega: float, phases: dict[int, Sequence[float]]
) -> Iterator[NDArray[np.complex128]]:
    """
    Gated Gamma(omega) with the phases of the couplings keyed in `phases` set
    to every point of the product of their values (the first key varying
    slowest), as consecutive stacks (see _BLOCK_ENTRIES). The stability
    gate checks the model as given; each block's drift matrices are one
    build_drift_matrix call on the swept values |G| exp(i theta).
    """
    for index in phases:
        check_index("coupling_index", index, len(model.couplings), "couplings")
    require_stable(build_drift_matrix(model))
    points = itertools.product(*phases.values())
    magnitudes = np.array([model.couplings[index].magnitude for index in phases])

    def drifts(block: slice) -> NDArray[np.complex128]:
        thetas = np.array(list(itertools.islice(points, block.stop - block.start)))
        couplings = np.tile([coupling.value for coupling in model.couplings], (len(thetas), 1))
        couplings[:, list(phases)] = magnitudes * np.exp(1j * thetas)
        return build_drift_matrix(model, couplings=couplings)

    omegas = np.broadcast_to(omega, math.prod(map(len, phases.values())))
    signature = _channel_signature(model.n_modes)
    return _resolvent_blocks(drifts, input_coupling_matrix(model), omegas, signature)


#: A transmission leg (src, dst, sideband): a unit input on the `sideband`
#: channel of port src ("+" annihilation, "-" creation), read at port dst.
Leg = tuple[int, int, str]

_SIDEBAND_OFFSET = {"+": 0, "-": 1}


def transmission(gamma, src: int, dst: int, sideband: str = "+") -> NDArray[np.float64]:
    """|Gamma[..., 2 dst, c] + Gamma[..., 2 dst + 1, c]|^2, c the channel of port src."""
    col = 2 * src + _SIDEBAND_OFFSET[sideband]
    return np.abs(gamma[..., 2 * dst, col] + gamma[..., 2 * dst + 1, col]) ** 2


def asymmetry(t_forward, t_backward) -> float | NDArray[np.float64]:
    """Transmission asymmetry (T_f - T_b) / (T_f + T_b) in [-1, 1], elementwise; NumericalError if 0/0."""
    t_f, t_b = np.asarray(t_forward, dtype=float), np.asarray(t_backward, dtype=float)
    if np.any(t_f < 0) or np.any(t_b < 0):
        raise ValueError("transmission coefficients must be non-negative")
    if np.any((t_f < 1e-300) & (t_b < 1e-300)):
        raise numerics.NumericalError("both transmission coefficients vanish (0/0)")
    return (t_f - t_b) / (t_f + t_b)


#: Named asymmetries R = A(T(forward), T(backward)) of the two- and
#: three-mode systems, and the index of the coupling whose phase tunes R.
ASYMMETRY_PAIRS: dict[str, tuple[Leg, Leg, int]] = {
    "ab": ((1, 0, "+"), (0, 1, "-"), 0),
    "mb": ((1, 0, "+"), (0, 1, "+"), 0),
    "bc": ((2, 1, "+"), (1, 2, "+"), 1),
}

#: Spectrum columns of the two- and three-mode systems, by topology name:
#: the transmission columns and the named asymmetries that follow them.
_NAMED_COLUMNS: dict[str, tuple[dict[str, Leg], tuple[str, ...]]] = {
    "du": ({
        "T_a": (0, 0, "+"), "T_b": (1, 1, "+"),
        "T_a_plus": (1, 0, "+"), "T_a_minus": (1, 0, "-"),
        "T_b_plus": (0, 1, "+"), "T_b_minus": (0, 1, "-"),
    }, ("ab",)),
    "three": ({
        "T_m_plus": (1, 0, "+"), "T_m_minus": (1, 0, "-"),
        "T_to_b_plus": (0, 1, "+"), "T_to_b_minus": (0, 1, "-"),
        "T_b_plus": (2, 1, "+"), "T_b_minus": (2, 1, "-"),
        "T_to_c_plus": (1, 2, "+"), "T_to_c_minus": (1, 2, "-"),
    }, ("mb", "bc")),
}


def pair_asymmetry(gamma, pair: tuple[Leg, Leg, int]) -> NDArray[np.float64]:
    """Asymmetry A(T(forward), T(backward)) of one entry of a pair table, per Gamma."""
    forward, backward, _ = pair
    return asymmetry(transmission(gamma, *forward), transmission(gamma, *backward))


def port_columns(model: SystemModel) -> tuple[dict[str, Leg], dict[str, tuple[Leg, Leg, int]]]:
    """
    The model's spectrum columns: transmissions by leg, then asymmetries by
    pair. Two- and three-mode systems use their named tables; a chain gets,
    for each coupling between modes labelled x and y, T_{y}_to_{x},
    T_{x}_to_{y} and R_{x}{y} = A(T_{y}_to_{x}, T_{x}_to_{y}), all "+".
    """
    named = _NAMED_COLUMNS.get(model.topology.value)
    if named is not None:
        transmissions, pairs = named
        return dict(transmissions), {f"R_{k}": ASYMMETRY_PAIRS[k] for k in pairs}
    transmissions: dict[str, Leg] = {}
    asymmetries: dict[str, tuple[Leg, Leg, int]] = {}
    labels = [mode.label for mode in model.modes]
    for i, (x, y) in enumerate(zip(labels, labels[1:])):
        forward, backward = (i + 1, i, "+"), (i, i + 1, "+")
        transmissions[f"T_{y}_to_{x}"] = forward
        transmissions[f"T_{x}_to_{y}"] = backward
        asymmetries[f"R_{x}{y}"] = (forward, backward, i)
    return transmissions, asymmetries


def asymmetry_pair(model: SystemModel, which: str) -> tuple[Leg, Leg, int]:
    """The pair behind the model's R_{which} column; ConfigError if it has none."""
    pairs = port_columns(model)[1]
    if f"R_{which}" not in pairs:
        raise ConfigError(
            f"asymmetry {which!r} is not defined for this {model.topology.value} system"
            f" (available: {', '.join(name[2:] for name in pairs)})"
        )
    return pairs[f"R_{which}"]


#: Exact SI values (2019 redefinition): reduced Planck constant and Boltzmann constant.
_HBAR = 6.62607015e-34 / (2 * math.pi)
_K_B = 1.380649e-23
#: The largest occupation taken: the noise power and the Welch variance are quadratic in n.
_MAX_OCCUPATION = math.sqrt(sys.float_info.max)


def thermal_occupation(absolute_frequency: float, temperature: float) -> float:
    """Bose-Einstein occupation 1/(exp(hbar w / kB T) - 1), 0 at T=0; ConfigError if
    unusable, or if n is infinite or above _MAX_OCCUPATION, so that n^2 is finite."""
    if absolute_frequency <= 0:
        raise ConfigError("absolute_frequency must be positive")
    if temperature < 0:
        raise ConfigError("temperature must be non-negative")
    if temperature == 0.0:
        return 0.0
    x = _HBAR * absolute_frequency / (_K_B * temperature)
    if x > 700.0:
        return 0.0
    occupation = 1.0 / math.expm1(x) if x > 0.0 else math.inf
    if not occupation <= _MAX_OCCUPATION:
        raise ConfigError(f"thermal occupation is not finite at absolute_frequency"
                          f" {absolute_frequency:g} and temperature {temperature:g}, or its"
                          f" square is not: n = {occupation:.3g} > {_MAX_OCCUPATION:.3g}")
    return occupation


def occupations(model: SystemModel) -> NDArray[np.float64]:
    """Per-mode thermal occupations at the model's environment temperature."""
    return np.array(
        [thermal_occupation(m.absolute_frequency, model.temperature) for m in model.modes]
    )


def quadrature_coefficients(gamma, output_port: int, psi: float = 0.0) -> NDArray[np.complex128]:
    """
    Coefficients C_k of each input channel in the measured output quadrature
    x = (out^dag e^{i psi} + out e^{-i psi}) / sqrt(2) of the chosen port of Gamma,
    or of each Gamma of a (..., 2n, 2n) stack. A (..., 2, 2n) stack of one port's
    two rows is read as port 0.
    """
    check_index("output_port", output_port, gamma.shape[-1] // 2, "modes")
    row_a, row_c = gamma[..., 2 * output_port, :], gamma[..., 2 * output_port + 1, :]
    return (row_a * np.exp(-1j * psi) + row_c * np.exp(1j * psi)) / np.sqrt(2.0)


def output_spectrum(model: SystemModel, omegas, port: int) -> NDArray[np.float64]:
    """
    Symmetrized output power spectrum S_out of one port at each frequency.

    S_out(w) sums |causal transfer element|^2 times (n_k + 1/2) over all
    input channels; the own-port term is the self contribution and the rest
    are cross contributions. This is the quantity a stationary time-domain
    simulation of the same system estimates via Welch averaging.
    """
    check_index("port", port, model.n_modes, "modes")
    gammas = transfer_matrices(model, omegas, causal=True)
    rows = np.concatenate([np.abs(g[:, 2 * port, :]) ** 2 for g in gammas])
    return (rows[:, 0::2] + rows[:, 1::2]) @ (occupations(model) + 0.5)


class SnrSolver:
    """
    S_AP and SNR of one model over frequency grids.

    Builds the drift matrix, input couplings and occupations once; a grid
    goes through the stacked resolvent path of transfer_matrices, which
    forms only the two readout-port rows, and quadrature_coefficients reads
    the homodyne coefficients C from them (coefficients). leading(n) views
    the model's first n modes. S_AP = |C_s + C_s*|^2 (amplification) is the
    quadrature amplification of a unit Hermitian signal entering at
    signal_port; the SNR divides it by the thermally weighted homodyne noise
    sum_j (|C_{j,+}|^2 + |C_{j,-}|^2)(n_j + 1/2). signal_port, readout_port (the
    last mode by default) and psi are the readout, which every SNR entry passes here.
    scan ranks the SNR of a stack of drift matrices from the poles of Lambda M.
    """

    def __init__(
        self,
        model: SystemModel,
        signal_port: int = 0,
        readout_port: int | None = None,
        psi: float = 0.0,
    ):
        self.readout_port = model.n_modes - 1 if readout_port is None else readout_port
        for name, port in (("signal_port", signal_port), ("readout_port", self.readout_port)):
            check_index(name, port, model.n_modes, "modes")
        self.signal_port = signal_port
        self.psi = psi
        self.drift = build_drift_matrix(model)
        self.lam = _channel_signature(model.n_modes)
        self.ell = input_coupling_matrix(model)
        self.weights = occupations(model) + 0.5

    def leading(self, n: int) -> SnrSolver:
        """The solver of the model's first n modes, read at mode n - 1: slices of this one's
        drift, Lambda, L and weights. ConfigError unless 2 <= n <= the model's modes."""
        if not 2 <= n <= len(self.weights):
            raise ConfigError(f"chain length {n} is out of range: the system has"
                              f" {len(self.weights)} modes (a length takes at least 2)")
        check_index("signal_port", self.signal_port, n, "modes")
        view = copy.copy(self)
        view.readout_port = n - 1
        view.drift, view.lam = self.drift[: 2 * n, : 2 * n], self.lam[: 2 * n]
        view.ell, view.weights = self.ell[: 2 * n, : 2 * n], self.weights[:n]
        return view

    def solve(self, omegas, drift=None) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """(S_AP, SNR) over a grid; `drift` replaces M (one, or one per frequency)."""
        return self.from_coefficients(self.coefficients(omegas, drift))

    def coefficients(self, omegas, drift=None) -> NDArray[np.complex128]:
        """Homodyne coefficients C over a grid, input channels on the last axis (see solve)."""
        r = slice(2 * self.readout_port, 2 * self.readout_port + 2)
        m = self.drift if drift is None else drift
        rows = np.concatenate(list(_resolvent_blocks(m, self.ell, omegas, self.lam, r)))
        return quadrature_coefficients(rows, 0, self.psi)

    def scan(self, drifts, grid) -> Iterator[tuple]:
        """
        (block, SNR over `grid`, trusted, cond_1(V)) of each block of _SCAN_ENTRIES
        entries of a stack of drift matrices M, from the poles d and eigenvectors V of
        Lambda M. Lambda^2 = I, so i w Lambda - M = Lambda (i w I - Lambda M), and the
        readout rows are L_r V diag(1 / (i w - d)) V^-1 Lambda L - I_r: O(n^2) per
        frequency. Since |(i w Lambda - M)^-1|_1 <= cond_1(V) / min_k |i w - d_k|, the
        exact kernel's rcond at w is at least min_k |i w - d_k| / (max(|w| + |M|_1, 1)
        cond_1(V)); a matrix is trusted if cond_1(V) < _EIGVEC_COND_LIMIT and that bound
        exceeds _RCOND_MARGIN on the whole grid. Nothing in a block is trusted (cond_1 inf,
        SNR 0) if eig or inv fails. Blocks reuse one complex (2, cells, len(grid), n) buffer.
        """
        n = drifts.shape[-1]
        step = max(1, _SCAN_ENTRIES // (len(grid) * n))
        work = np.empty((2, min(step, len(drifts)), len(grid), n), dtype=complex)
        r = slice(2 * self.readout_port, 2 * self.readout_port + 2)
        eye_r = quadrature_coefficients(np.eye(n)[r], 0, self.psi)
        for block in (slice(start, start + step) for start in range(0, len(drifts), step)):
            m = drifts[block]
            cells = len(m)
            try:
                poles, v = np.linalg.eig(self.lam[:, None] * m)
                v_inv = np.linalg.inv(v)
            except np.linalg.LinAlgError:
                yield (block, np.zeros((cells, len(grid))), np.zeros(cells, dtype=bool),
                       np.full(cells, np.inf))
                continue
            cond = np.linalg.norm(v, 1, axis=(-2, -1)) * np.linalg.norm(v_inv, 1, axis=(-2, -1))
            gaps = np.subtract(1j * grid[:, None], poles[:, None, :], out=work[0, :cells])
            norm_m = np.linalg.norm(m, 1, axis=(-2, -1))
            scale = np.maximum(np.abs(grid) + norm_m[:, None], 1.0) * cond[:, None]
            # The nearest pole, pole by pole: numpy's reduction over a short last axis is slow.
            nearest = np.abs(gaps[..., 0])
            for k in range(1, n):
                np.minimum(nearest, np.abs(gaps[..., k]), out=nearest)
            trusted = (cond < _EIGVEC_COND_LIMIT) & np.all(nearest / scale > _RCOND_MARGIN, axis=-1)
            left = quadrature_coefficients(self.ell[r] @ v, 0, self.psi)
            right = v_inv @ (self.lam[:, None] * self.ell)
            with np.errstate(all="ignore"):  # only an untrusted matrix can overflow or meet a pole
                quotients = np.divide(left[:, None, :], gaps, out=work[1, :cells])
                c = np.matmul(quotients, right, out=gaps)
                c -= eye_r
                snr = self.from_coefficients(c)[1]
            yield block, snr, trusted, cond

    def amplification(self, c) -> NDArray[np.float64]:
        """S_AP = |C_s + C_s*|^2 of homodyne coefficients C, input channels on the last axis."""
        s = self.signal_port
        return np.abs(c[..., 2 * s] + c[..., 2 * s + 1]) ** 2

    def from_coefficients(self, c) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """(S_AP, SNR) of homodyne coefficients C, input channels on the last axis."""
        s_ap = self.amplification(c)
        mags = np.abs(c) ** 2
        # Summed mode by mode: numpy's reduction over a short last axis is slow.
        noise = (mags[..., 0] + mags[..., 1]) * self.weights[0]
        for j in range(1, len(self.weights)):
            noise += (mags[..., 2 * j] + mags[..., 2 * j + 1]) * self.weights[j]
        return s_ap, np.where(noise > 0.0, s_ap / np.where(noise > 0.0, noise, 1.0), 0.0)


def snr_spectrum(
    model: SystemModel, omegas, **readout
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Amplification S_AP and signal-to-noise S_SNR spectra of a stable model (see SnrSolver)."""
    solver = SnrSolver(model, **readout)
    require_stable(solver.drift)
    return solver.solve(omegas)
