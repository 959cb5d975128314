"""Gain models for the three insurance policy structures.

A policy turns the raw annual loss ``Z = X_1 + ... + X_N`` (Poisson count
``N``, i.i.d. Inverse-Gaussian severities) into an insured loss ``Zt``:

* ILP caps each individual loss at a top cover limit:
  ``Zt = sum max(X_n - tcl, 0)``;
* ALP compensates the annual aggregate above a cap:
  ``Zt = max(Z - cap, 0)``;
* PAP covers every loss from the moment the running total first exceeds an
  attachment point: ``Zt = sum X_n * 1{S_n <= attachment}``.

Each policy is exposed under two objectives through the engine's gain
contract: "local" (``W = -Zt``: minimize insured loss at claim years) and
"global" (``W = Z - Zt``: minimize total loss over the horizon).  All
expectations are conditioned on the loss count, with first-passage events
for PAP handled by explicit conditioning on the crossing index; this keeps
every closed form consistent with pathwise simulation of the definitions
above.  The ILP-global case has no tractable density and is served by an
empirical model built from an offline Monte Carlo sample of the gain.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from functools import cache
from typing import Literal

import numpy as np

from .distributions import (
    ConfigError,
    FrequencyModel,
    CompoundIG,
    IGParams,
    _ig_cdf,
    _ig_pdf,
    _ig_tails,
    _ig_upper,
    poisson_m_max,
    poisson_sf,
)
from .expansion import gamma_local_model
from .simulation import _year_one
from .stopping import (
    GLOBAL,
    LOCAL,
    Horizon,
    Objective,
    StopLossGain,
    compute_value_table,
    lognormal_local_model,
)


@dataclass(frozen=True)
class LDAModel:
    """Loss-generating law: Poisson frequency, IG severity.

    ``m_max = poisson_m_max(frequency)`` truncates the conditioning sums over the
    annual loss count, dropping less than 1e-10 of its probability and of its mean.
    """

    frequency: FrequencyModel
    severity: IGParams
    m_max: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "m_max", poisson_m_max(self.frequency))

    @property
    def mean_annual_loss(self) -> float:
        return self.frequency.rate * self.severity.mu

    def mixture(self) -> CompoundIG:
        """The annual aggregate as a mixture over the truncated loss count."""
        return CompoundIG(self.frequency, self.severity, self.m_max)


@dataclass(frozen=True)
class PolicySpec:
    """Choice of policy structure, its parameter, and the objective mode."""

    kind: Literal["ILP", "ALP", "PAP"]
    param: float
    objective: Objective

    def __post_init__(self) -> None:
        if self.kind not in ("ILP", "ALP", "PAP"):
            raise ConfigError(f"unknown policy kind {self.kind!r}")
        if not (math.isfinite(self.param) and self.param > 0):
            raise ConfigError(f"policy parameter must be positive, got {self.param}")
        if self.objective not in (LOCAL, GLOBAL):
            raise ConfigError(f"objective must be 'local' or 'global', got {self.objective!r}")


@dataclass(frozen=True)
class ILPAuxModel:
    """Post-insurance loss process for ILP under the local objective.

    The insured process is modelled directly as a compound Poisson with its
    own rate and IG severities.  Calibrating ``aux_rate`` from the raw
    frequency / top-cover-limit pair is the caller's responsibility.
    """

    aux_rate: float
    aux_severity: IGParams

    def __post_init__(self) -> None:
        if not (math.isfinite(self.aux_rate) and self.aux_rate > 0):
            raise ConfigError(f"aux rate must be positive, got {self.aux_rate}")

    @property
    def lda(self) -> LDAModel:
        """The insured process as a loss law."""
        return LDAModel(FrequencyModel(rate=self.aux_rate), self.aux_severity)


@dataclass(frozen=True)
class ALPWeights:
    """Mixture weights of the ALP insured loss: atom ``c0`` at zero plus one
    continuous branch per loss count; ``c0 + sum(cm) == 1``."""

    c0: float
    cm: np.ndarray  # index m-1 -> P[N = m, S_m > cap]


@dataclass(frozen=True)
class EmpiricalGainSample:
    """Offline Monte Carlo sample of a nonnegative annual gain."""

    draws: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        if len(self.draws) == 0:
            raise ConfigError("empirical gain sample must be nonempty")
        # a NaN makes the minimum NaN; no mask of the draws is formed
        if not (np.min(self.draws) >= 0 and np.isfinite(np.max(self.draws))):
            raise ConfigError("gain draws must be finite and nonnegative")


@cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``n``-node Gauss-Legendre rule on (-1, 1), computed once per process
    and returned as read-only arrays."""
    t, w = np.polynomial.legendre.leggauss(n)
    t.flags.writeable = w.flags.writeable = False
    return t, w


# ---------------------------------------------------------------------------
# Accumulated Loss Policy
# ---------------------------------------------------------------------------


class AlpLocalGain(StopLossGain):
    """ALP, local objective: W = -max(Z - cap, 0).

    The insured loss has an atom at zero (no excess) and, given ``N = m``,
    the excess of the IG sum over the cap.  Its stop-loss transform at
    ``delta = -d`` needs the count mixture's CDF and partial mean at the cap
    and at ``cap + d`` only.
    """

    def __init__(self, lda: LDAModel, cap: float) -> None:
        if not (math.isfinite(cap) and cap > 0):
            raise ConfigError(f"cap must be positive, got {cap}")
        self.lda = lda
        self.cap = cap
        mix = self._mix = lda.mixture()
        at_cap = self._at_cap = mix.tails(cap)
        self.weights = ALPWeights(
            c0=mix.p0 + float(np.sum(mix.pm * at_cap.cdf)),
            cm=mix.pm * at_cap.sf,
        )
        excess = at_cap.upper_mean - cap * at_cap.sf
        super().__init__(-float(np.sum(mix.pm * excess)))

    def stop_loss(self, delta: np.ndarray) -> np.ndarray:
        # E[(d - Zt)+]: d on the atom, (cap + d - Z) on cap < Z <= cap + d;
        # one row per delta, one column per loss count.  Both ends lie in the
        # upper tail, so the band is taken as a difference of survivals.
        y = (self.cap - delta)[:, None]
        mix, at_cap = self._mix, self._at_cap
        sf_y, upper_mean_y = mix.upper(y)
        body = y * (at_cap.sf - sf_y) - (at_cap.upper_mean - upper_mean_y)
        return np.sum(mix.pm * body, axis=1) - delta * self.weights.c0


class AlpGlobalGain(StopLossGain):
    """ALP, global objective: W = min(cap, Z).

    The gain has atoms at 0 (no losses) and at the cap (aggregate exceeds it)
    with the IG-sum density in between.
    """

    local = False

    def __init__(self, lda: LDAModel, cap: float) -> None:
        if not (math.isfinite(cap) and cap > 0):
            raise ConfigError(f"cap must be positive, got {cap}")
        self.lda = lda
        self.cap = cap
        mix = self._mix = lda.mixture()
        at_cap = self._at_cap = mix.tails(cap)
        super().__init__(float(np.sum(mix.pm * (cap * at_cap.sf + at_cap.lower_mean))))

    def stop_loss(self, delta: np.ndarray) -> np.ndarray:
        mix, at_cap = self._mix, self._at_cap
        d = delta[:, None]
        cdf_d, lower_mean_d = mix.lower(d)
        body = (
            (self.cap - d) * at_cap.sf
            + (at_cap.lower_mean - lower_mean_d)
            - d * (at_cap.cdf - cdf_d)
        )
        # the gain never exceeds the cap
        return np.where(delta >= self.cap, 0.0, np.sum(mix.pm * body, axis=1))


alp_local_model = AlpLocalGain
alp_global_model = AlpGlobalGain


# ---------------------------------------------------------------------------
# Post Attachment Point coverage
# ---------------------------------------------------------------------------


def _crossing_pmf(lda: LDAModel, attachment: float, lo: int, hi: int) -> np.ndarray:
    """``P[M* = j]`` for ``j = lo..hi``, in closed form.

    Severities are positive, so ``{S_j <= a} ⊂ {S_{j-1} <= a}`` and
    ``P[M* = j] = F_{S_{j-1}}(a) - F_{S_j}(a)`` with ``S_0 = 0``.  Where
    ``F_{S_{j-1}}(a) > 1/2`` the difference is taken between the survival
    values, which the tails kernel gives exactly, so ``j = 1`` is exactly
    ``1 - F_X(a)`` and no small term is a difference of CDFs rounded to 1.
    """
    if not (math.isfinite(attachment) and attachment > 0):
        raise ValueError(f"attachment must be positive, got {attachment}")
    j = np.arange(max(lo - 1, 1), hi + 1)
    cdf, sf, _, _ = _ig_tails(attachment, j * lda.severity.mu, j * j * lda.severity.lam)
    if lo == 1:  # S_0 = 0 lies below the attachment
        cdf, sf = np.append(1.0, cdf), np.append(0.0, sf)
    pmf = np.where(cdf[:-1] > 0.5, sf[1:] - sf[:-1], cdf[:-1] - cdf[1:])
    return np.maximum(pmf, 0.0)


def mstar_pmf(m_star: int, lda: LDAModel, attachment: float) -> float:
    """P[the running severity sum first exceeds the attachment at index m*].

    Independent of the annual count: the event only constrains the first
    ``m_star`` severities.  It is ``F_{S_{m*-1}}(a) - F_{S_{m*}}(a)``, so
    ``m_star = 1`` is the single-loss exceedance probability.
    """
    if m_star < 1:
        raise ValueError(f"m_star must be >= 1, got {m_star}")
    return float(_crossing_pmf(lda, attachment, m_star, m_star)[0])


# CrossingLaw nodes of PAP-local's crossing grid and PAP-global's gaps
_PAP_LOCAL_NODES = 256
_PAP_GLOBAL_GAPS = 128
# PAP-global's composite inner grid: Gauss-Legendre nodes per segment,
# segments per octave of the tail above the attachment, and the ratio of the
# geometric pieces that grade a call's grid toward x = delta
_PAP_SEG_NODES = 8
_PAP_TAIL_PER_OCTAVE = 32
_PAP_GRADE = 0.5
# PAP-global's inner integral evaluates the tails of S_r only where
# a_r = sqrt(lam/y) (y/mu - r) > -_PAP_BAND (elsewhere 1 - F and 1 - G round
# to 1.0), over blocks of _PAP_BLOCK nodes, sized to keep them in cache
_PAP_BAND = 9.0
_PAP_BLOCK = 256


class CrossingLaw:
    """The law of the PAP crossing index ``j`` and the sum ``s`` of the losses
    before it, on an ``n``-node Gauss-Legendre grid ``s, w`` of ``(0, attachment)``.

    ``dens[i - 1]`` is ``f_{S_i}(s)``, kept apart from ``w`` so that each model
    keeps its own product order.  ``f``, ``sf`` and ``gig_sf`` are ``F``,
    ``1 - F`` and ``1 - G`` of one loss at the ``gaps``: ``attachment - s``,
    where ``sf`` is the crossing factor, and last the attachment, where it is
    ``P[M* = 1]``.  ``never`` is the never-crossing mass ``sum_m p_m F_{S_m}(attachment)``.
    """

    def __init__(self, lda: LDAModel, attachment: float, n: int) -> None:
        if not (math.isfinite(attachment) and attachment > 0):
            raise ConfigError(f"attachment must be positive, got {attachment}")
        mix = self.mix = lda.mixture()
        self.at_att = mix.tails(attachment)
        self.never = float(np.sum(mix.pm * self.at_att.cdf))
        t, w = _gauss_legendre(n)
        half = 0.5 * attachment
        self.s, self.w = half * (t + 1.0), half * w
        self.dens = _ig_pdf(self.s, mix.m_mu[:-1, None], mix.beta[:-1, None])
        self.gaps = np.append(attachment - self.s, attachment)
        self.f, self.sf, _, self.gig_sf = _ig_tails(self.gaps, lda.severity.mu, lda.severity.lam)


class PapLocalGain(StopLossGain):
    """PAP, local objective: W = -(sum of losses up to the attachment crossing).

    Conditioning on the crossing index ``j``, the insured loss is the partial
    sum ``S_{j-1}`` restricted to the crossing event; those restricted
    expectations are one-dimensional integrals of smooth IG quantities over
    ``(0, attachment)``, evaluated on the 256-node :class:`CrossingLaw`
    shared by every call.  Paths that never cross keep the plain IG-sum law
    below the attachment.
    """

    def __init__(self, lda: LDAModel, attachment: float) -> None:
        law = CrossingLaw(lda, attachment, _PAP_LOCAL_NODES)
        self.lda = lda
        self.attachment = attachment
        mix = self._mix = law.mix
        self._nodes, self._never = law.s, law.never
        # g[q] aggregates, over all crossing indices j >= 2, the sub-density of
        # the retained sum at the node, weighted by P[N >= j], added in order of j
        p_cross = np.array([poisson_sf(j - 1, lda.frequency) for j in range(2, lda.m_max + 1)])
        self._g = np.sum(p_cross[:, None] * law.w * law.sf[:-1] * law.dens, axis=0)
        self._atom = mix.p0 + (1.0 - mix.p0) * float(law.sf[-1])
        mean_cross = float(np.sum(law.s * self._g))
        mean_never = float(np.sum(mix.pm * law.at_att.lower_mean))
        super().__init__(-(mean_cross + mean_never))

    def stop_loss(self, delta: np.ndarray) -> np.ndarray:
        # E[(d - Zt)+] over the atom, the never-crossing sums (all below the
        # attachment) and the crossing branch's retained sums at the nodes
        d = -delta
        dd = d[:, None]
        mix = self._mix
        cdf, lower_mean = mix.lower(np.minimum(dd, self.attachment))
        never = np.sum(mix.pm * (dd * cdf - lower_mean), axis=1)
        cross = np.sum(np.maximum(dd - self._nodes, 0.0) * self._g, axis=1)
        return never + cross + d * self._atom

    def total_mass(self) -> float:
        """Atom plus quadrature mass of all branches; 1 up to grid error."""
        return self._atom + float(np.sum(self._g)) + self._never


class PapGlobalGain(StopLossGain):
    """PAP, global objective: W = sum of losses from the crossing onwards.

    Conditional on ``N = m`` and crossing index ``j``, the gain is the
    crossing loss ``x`` (restricted to exceed the remaining gap ``u``) plus
    an unconstrained IG sum ``S_r`` of the ``r = m - j`` subsequent losses.
    Expectations are sums over ``u`` on the gaps of the 128-node
    :class:`CrossingLaw` (``u`` is the attachment itself when the first loss
    crosses) and are exact in ``x``, except for the residual sum's
    stop-loss transform ``SL_r(delta - x)``.  Exchanging the two sums
    evaluates that term once for all gaps, weighted by the step function
    ``H_r(x)``, the weight of the gaps below ``x``.  It runs on one
    composite Gauss-Legendre grid in ``x``, split at every gap, at the
    attachment and geometrically above it, built with its weights
    ``f_X(x) H_r(x)`` at construction; a call only adds pieces graded
    geometrically toward ``x = delta``, where ``SL_r`` is least smooth.

    ``SL_r(y) = r mu (1 - G) - y (1 - F)`` takes the tails of ``S_r`` only
    below the band ``r >= y/mu + 9 sqrt(y/lam)``: there ``a_r = sqrt(lam/y)
    (y/mu - r) <= -9``, so ``Phi(a_r)`` is below 1.2e-19 and both tails round
    to exactly 1.0, which leaves ``r mu - y``.  The nodes run from small to
    large ``x``, so the rows below the band shrink along them; the kernel
    takes them in blocks of ``_PAP_BLOCK`` nodes, each with the rows its
    largest ``y`` needs, which keeps its temporaries in cache.
    """

    local = False

    def __init__(self, lda: LDAModel, attachment: float) -> None:
        law = CrossingLaw(lda, attachment, _PAP_GLOBAL_GAPS)
        self.lda = lda
        self.attachment = attachment
        mu, lam = lda.severity.mu, lda.severity.lam
        self._mu, self._lam = mu, lam
        m_max = lda.m_max
        mix = law.mix
        self.prob_zero_gain = mix.p0 + law.never

        # h[r, q]: total weight on (pre-crossing sum at node q, r losses after
        # the crossing) = sum_i P[N = i + r + 1] w_q f_{S_i}(node_q)
        h = np.zeros((m_max, law.s.size))
        for i, dens in enumerate(law.w * law.dens, start=1):
            for r in range(0, m_max - i):
                h[r] += mix.pm[i + r] * dens
        # effective support bounds: where the crossing-loss density and the
        # largest residual sum's stop-loss transform have fully decayed
        x_hi = max(mu, attachment)
        while float(_ig_cdf(np.asarray(x_hi), mu, lam)) < 1.0 - 1e-15:
            x_hi *= 2.0
        self._x_hi = x_hi
        s_cap = max(m_max * mu, 1.0)
        while float(_ig_cdf(np.asarray(s_cap), m_max * mu, m_max * m_max * lam)) < 1.0 - 1e-15:
            s_cap *= 2.0
        self._s_cap = s_cap
        # below y_lin every S_r sits above y, so SL_r(y) = r mu - y there
        y_lin = mu
        while float(_ig_cdf(np.asarray(y_lin), mu, lam)) > 1e-17:
            y_lin *= 0.5
        self._y_lin = y_lin

        # the closed-form terms need only each gap's weight summed over r; the
        # gap is the attachment itself, with weight P[N = r + 1], when the
        # first loss crosses
        r = np.arange(m_max)
        self._gaps, self._gap_f, self._gap_sf = law.gaps, law.f, law.sf
        self._gap_w = np.append(h.sum(axis=0), mix.pm.sum())
        self._gap_rw = np.append(r @ h, r @ mix.pm)
        self._gap_tail_first = mu * law.gig_sf
        super().__init__(float(self._gap_terms(np.zeros(1))[0]))  # E[max{W, 0}] = E[W]

        # the composite x grid, H_r on each of its segments for r >= 1, and
        # the nodes with their weights w f_X(x) H_r(x)
        n_tail = math.ceil(_PAP_TAIL_PER_OCTAVE * math.log2(x_hi / attachment))
        order = np.argsort(law.gaps[:-1])
        cuts = np.concatenate((law.gaps[order], np.geomspace(attachment, x_hi, n_tail + 1)))
        steps = np.cumsum(np.concatenate((h[1:, order], mix.pm[1:, None]), axis=1), axis=1)
        self._cuts = cuts
        self._seg_h = steps[:, np.minimum(np.arange(cuts.size - 1), steps.shape[1] - 1)]
        self._t, self._w = _gauss_legendre(_PAP_SEG_NODES)
        self._x, wf = self._pieces(cuts[:-1], cuts[1:])
        self._hx = np.repeat(self._seg_h, _PAP_SEG_NODES, axis=1) * wf
        self._rr = np.arange(1, m_max)[:, None]

    def _pieces(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gauss nodes of the pieces ``(lo, hi)`` and their weights ``w f_X(x)``."""
        half = 0.5 * (hi - lo)[:, None]
        x = (lo[:, None] + half * (self._t + 1.0)).ravel()
        return x, (half * self._w).ravel() * _ig_pdf(x, self._mu, self._lam)

    def _gap_terms(self, delta: np.ndarray) -> np.ndarray:
        """The closed-form part of ``E[max{W, d}]`` on the positive-gain
        branches, for each ``d`` in ``delta`` at once (one row per ``d``, one
        column per gap)."""
        f_d, sf_d, _, gig_sf_d = _ig_tails(delta, self._mu, self._lam)
        low = self._gaps < delta[:, None]  # the crossing loss can fall short of d
        tail_x = np.where(low, sf_d[:, None], self._gap_sf)
        tail_first = np.where(low, self._mu * gig_sf_d[:, None], self._gap_tail_first)
        below = np.where(low, self._gap_w * (f_d[:, None] - self._gap_f), 0.0)
        return (
            self._mu * np.sum(self._gap_rw * tail_x, axis=1)
            + np.sum(self._gap_w * tail_first, axis=1)
            + delta * np.sum(below, axis=1)
        )

    def _grid(self, d: float) -> tuple[slice, np.ndarray]:
        """The grid of ``_inner`` for ``d``: a slice of the static nodes, then
        the breakpoints of the graded pieces after it (empty when there are
        none).  Both are empty when nothing of ``x < d`` is left to integrate."""
        cuts, p = self._cuts, _PAP_SEG_NODES
        a, b = max(cuts[0], d - self._s_cap), min(d, self._x_hi)
        if not a < b:
            return slice(0, 0), np.empty(0)
        # the segments from the one holding a (SL_r vanishes beyond s_cap, so
        # all of it) to the one holding b; a segment wider than a graded piece
        # at its distance from d is near, and from the first near one on the
        # grid is cut again
        s_lo = int(np.searchsorted(cuts, a, "right")) - 1
        s_hi = int(np.searchsorted(cuts, b, "left")) - 1
        right = cuts[s_lo + 1 : s_hi + 2]
        width = right - cuts[s_lo : s_hi + 1]
        near = np.flatnonzero(width > (d - right) * (1.0 / _PAP_GRADE - 1.0))
        s_near = s_lo + int(near[0]) if near.size else s_hi + 1
        static = slice(s_lo * p, s_near * p)
        if s_near > s_hi:
            return static, np.empty(0)
        # the near segments up to b, cut also where the distance from d
        # falls geometrically from their start down to y_lin
        d0, d_end = d - cuts[s_near], max(d - b, self._y_lin)
        n_grade = max(math.ceil(math.log(d0 / d_end) / -math.log(_PAP_GRADE)) - 1, 0)
        ladder = d - d0 * _PAP_GRADE ** np.arange(1, n_grade + 1)
        inside = cuts[s_near + 1 : s_hi + 1]
        return static, np.unique(np.concatenate(([cuts[s_near], b], inside, ladder)))

    def _inner(self, d: float, static: slice, x_new: np.ndarray, hx_new: np.ndarray) -> float:
        """``int f_X(x) H_r(x) SL_r(d - x) dx`` over ``x < d``, summed over r, on
        the static nodes and then the graded ones with their weights."""
        y = d - np.concatenate((self._x[static], x_new))
        rr, mu, lam = self._rr, self._mu, self._lam
        mu_r, lam_r = rr * mu, rr * rr * lam
        # SL_r(y) = r mu (1 - G) - y (1 - F) for S_r; both tails are 1.0 in
        # the band, so only each block's rows below it take the kernel
        sl = mu_r - y
        for c in range(0, y.size, _PAP_BLOCK):
            blk = slice(c, c + _PAP_BLOCK)
            y_top = max(float(y[blk].max()), 0.0)
            k = min(math.ceil(y_top / mu + _PAP_BAND * math.sqrt(y_top / lam)) - 1, rr.size)
            if k > 0:
                fs_bar, fh_bar = _ig_upper(y[blk], mu_r[:k], lam_r[:k])
                sl[:k, blk] = mu_r[:k] * fh_bar - y[blk] * fs_bar
        n_static = y.size - x_new.size
        sl[:, :n_static] *= self._hx[:, static]
        sl[:, n_static:] *= hx_new
        return float(np.sum(sl))

    def continuous_mass(self) -> float:
        """Quadrature mass of the strictly-positive-gain branches."""
        return float(np.sum(self._gap_w * self._gap_sf))

    def stop_loss(self, delta: np.ndarray) -> np.ndarray:
        # E[max{W, d}] - d over the positive-gain branches, plus the zero-gain
        # atom.  The gap terms and the densities of the graded pieces take the
        # whole row at once; the inner integral takes one d at a time on its
        # own grid, and the IG-sum tails in it only below the band, one block
        # of nodes at a time.
        grids = [self._grid(d) for d in delta.tolist()]
        lo = np.concatenate([np.empty(0), *(pts[:-1] for _, pts in grids)])
        hi = np.concatenate([np.empty(0), *(pts[1:] for _, pts in grids)])
        x_new, wf = self._pieces(lo, hi)
        cols = np.repeat(np.searchsorted(self._cuts, 0.5 * (lo + hi), "right") - 1, _PAP_SEG_NODES)
        inner, end = np.zeros(delta.size), 0
        for i, (d, (static, pts)) in enumerate(zip(delta.tolist(), grids)):
            new = slice(end, end + max(pts.size - 1, 0) * _PAP_SEG_NODES)
            inner[i] = self._inner(d, static, x_new[new], self._seg_h[:, cols[new]] * wf[new])
            end = new.stop
        return self._gap_terms(delta) + inner + delta * (self.prob_zero_gain - 1.0)


pap_local_model = PapLocalGain
pap_global_model = PapGlobalGain


# ---------------------------------------------------------------------------
# Individual Loss Policy
# ---------------------------------------------------------------------------


class IlpLocalGain(StopLossGain):
    """ILP, local objective, on the directly-modelled post-insurance process.

    ``Zt`` is compound Poisson with rate ``aux_rate`` and IG severities, so
    its stop-loss transform is a count mixture of IG-sum CDFs and partial
    means.
    """

    def __init__(self, aux: ILPAuxModel) -> None:
        self.aux = aux
        self._mix = aux.lda.mixture()
        super().__init__(-aux.aux_rate * aux.aux_severity.mu)

    def stop_loss(self, delta: np.ndarray) -> np.ndarray:
        d = -delta
        dd = d[:, None]
        mix = self._mix
        cdf, lower_mean = mix.lower(dd)
        return np.sum(mix.pm * (dd * cdf - lower_mean), axis=1) + d * mix.p0


ilp_local_model = IlpLocalGain


def ilp_global_sample(
    lda: LDAModel, tcl: float, n_draws: int, seed: int
) -> EmpiricalGainSample:
    """Offline sample of the ILP global gain ``W = sum min(X_n, tcl)``: year 1 of the T = 1
    ILP-global batch on the block streams, so a prefix of any larger sample with its seed."""
    draws = _year_one(lda, PolicySpec("ILP", tcl, GLOBAL), n_draws, seed)
    return EmpiricalGainSample(draws=draws, seed=seed)


# Disjoint contiguous sections of the sample behind the sectioned standard error.
_SECTIONS = 20


class EmpiricalGain(StopLossGain):
    """Gain model backed by a stored Monte Carlo sample.

    The same sample is reused for every ``(c1, c2)`` evaluation, so the whole
    value recursion is driven by one offline simulation;
    :meth:`expected_max_stderr` reports the Monte Carlo error of any single
    evaluation and :meth:`sectioned_stderr` that of a whole value table.

    Besides the unsorted draws, which give the mean and the standard errors,
    the model stores two arrays for the stop-loss term: ``_sorted``, the
    draws in ascending order, and ``_excess`` (length ``n + 1``), where
    ``_excess[j]`` is the sum of ``_sorted[i] - _sorted[j]`` over ``i >= j``
    (0 at ``j = n``).  With ``j`` the index of the first draw above
    ``delta``, ``E[(W - delta)+]`` is ``(_excess[j] + (n - j) (_sorted[j] -
    delta)) / n``: a pure function of ``delta``, and a sum of two nonnegative
    terms, so it keeps its relative accuracy where ``delta`` sits just below
    a cluster of tied draws (a sum of the draws above ``delta`` minus ``(n -
    j) delta`` would cancel there).
    """

    local = False

    def __init__(self, sample: EmpiricalGainSample) -> None:
        if len(sample.draws) < 10_000:
            warnings.warn(
                f"empirical gain model built from only {len(sample.draws)} draws",
                stacklevel=2,
            )
        self.sample = sample
        self._draws = np.asarray(sample.draws, dtype=float)
        n = self._draws.size
        self._sorted = np.sort(self._draws)
        # _excess[j] = _excess[j + 1] + (n - j - 1) (_sorted[j + 1] - _sorted[j])
        self._excess = np.zeros(n + 1)
        steps = np.diff(self._sorted)
        steps *= np.arange(n - 1, 0, -1)
        np.cumsum(steps[::-1], out=self._excess[: n - 1][::-1])
        self.mean_gain_stderr = float(self._draws.std(ddof=1) / math.sqrt(n))
        super().__init__(float(self._draws.mean()))

    def stop_loss(self, delta: np.ndarray) -> np.ndarray:
        n = self._sorted.size
        j = np.searchsorted(self._sorted, delta, side="right")
        # at j = n no draw is above delta; the clipped draw gets weight 0
        above = np.take(self._sorted, j, mode="clip")
        return (self._excess[j] + (n - j) * (above - delta)) / n

    def expected_max_stderr(self, c1: float, c2: float) -> float:
        if c2 == -math.inf:
            return self.mean_gain_stderr
        vals = np.maximum(c1 + self._draws, c2)
        return float(vals.std(ddof=1) / math.sqrt(vals.size))

    def sectioned_stderr(self, horizon: Horizon) -> np.ndarray:
        """Standard error of every cell of this model's value table.

        The draws are split into ``_SECTIONS`` disjoint contiguous sections,
        each section's table is computed on its own, and the per-cell spread
        (sample standard deviation) of those tables over ``sqrt(_SECTIONS)``
        is returned, NaN where the table is undefined.  This carries the
        sampling error through the recursion, which a per-cell
        :meth:`expected_max_stderr` does not (sectioning: Asmussen & Glynn,
        *Stochastic Simulation*, 2007, ch. IV).
        """
        tables = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # each section is smaller than a full sample
            for part in np.array_split(self._draws, _SECTIONS):
                section = EmpiricalGain(EmpiricalGainSample(draws=part, seed=self.sample.seed))
                tables.append(compute_value_table(section, horizon).values)
        return np.std(tables, axis=0, ddof=1) / math.sqrt(_SECTIONS)


ilp_global_model = EmpiricalGain


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------


def _require(cfg: dict, key: str) -> object:
    """``cfg[key]``; a ConfigError if ``cfg`` is not a JSON object or lacks the key."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"expected a JSON object holding {key!r}, got {type(cfg).__name__}")
    if key not in cfg:
        raise ConfigError(f"missing config field {key!r}")
    return cfg[key]


def _section(cfg: dict, key: str) -> dict:
    """The optional JSON-object entry ``cfg[key]``, ``{}`` when it is absent."""
    entry = cfg.get(key, {})
    if not isinstance(entry, dict):
        raise ConfigError(f"config field {key!r} must be a JSON object, got {type(entry).__name__}")
    return entry


def lda_from_config(cfg: dict) -> LDAModel:
    """Build the loss law from ``{"frequency": {...}, "severity": {...}}``."""
    freq = _require(cfg, "frequency")
    sev = _require(cfg, "severity")
    try:
        frequency = FrequencyModel(rate=float(_require(freq, "rate")))
        severity = IGParams(mu=float(_require(sev, "mu")), lam=float(_require(sev, "lambda")))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return LDAModel(frequency=frequency, severity=severity)


def policy_choice(cfg: dict) -> tuple[str, str]:
    """The config's policy ``kind`` upper-cased and its ``objective`` lower-cased.

    The one reader of the two strings, so that ``"pap"`` and ``"GLOBAL"``
    select what ``"PAP"`` and ``"global"`` do everywhere a config is read.
    """
    kind = str(_require(_require(cfg, "policy"), "kind")).upper()
    return kind, str(_require(cfg, "objective")).lower()


def policy_from_config(cfg: dict) -> PolicySpec:
    kind, objective = policy_choice(cfg)
    return PolicySpec(kind=kind, param=float(_require(cfg["policy"], "param")), objective=objective)


def horizon_from_config(cfg: dict) -> Horizon:
    """The ``{"horizon": {"T": ..., "k": ...}}`` entry of a config."""
    hz = cfg.get("horizon")
    if not hz:
        raise ConfigError("config must carry a horizon: {\"T\": ..., \"k\": ...}")
    return Horizon(T=int(_require(hz, "T")), k=int(_require(hz, "k")))


def objectives_from_config(cfg: dict) -> list:
    """The ``{"objectives": [...]}`` list of a study config: each objective once, in any case."""
    objectives = _require(cfg, "objectives")
    if not isinstance(objectives, list):
        raise ConfigError(f"config field 'objectives' must be a JSON list, got {objectives!r}")
    named = [str(objective).lower() for objective in objectives]
    if not named or len(set(named)) < len(named):
        raise ConfigError(f"config field 'objectives' must name each objective once, got {objectives!r}")
    return objectives


def aux_from_config(cfg: dict) -> ILPAuxModel:
    aux = _require(cfg, "aux")
    try:
        severity = IGParams(mu=float(_require(aux, "mu")), lam=float(_require(aux, "lambda")))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ILPAuxModel(aux_rate=float(_require(aux, "rate")), aux_severity=severity)


_LDA_MODELS = {
    ("ALP", LOCAL): alp_local_model,
    ("ALP", GLOBAL): alp_global_model,
    ("PAP", LOCAL): pap_local_model,
    ("PAP", GLOBAL): pap_global_model,
}


def gain_model_from_config(cfg: dict):
    """Dispatch a config dict to the matching gain model.

    A ``"lognormal"`` or ``"gamma"`` entry selects that local reference model.
    ILP/local reads the auxiliary post-insurance process from ``cfg["aux"]``
    and leaves the per-loss cap ``param`` unread, since presets leave it unset;
    ILP/global draws its offline sample using ``cfg["mc"]``.
    """
    if "lognormal" in cfg:
        ln = cfg["lognormal"]
        return lognormal_local_model(float(_require(ln, "mu")), float(_require(ln, "sigma")))
    if "gamma" in cfg:
        gm = cfg["gamma"]
        return gamma_local_model(float(_require(gm, "shape")), float(_require(gm, "rate")))
    if policy_choice(cfg) == ("ILP", LOCAL):
        return ilp_local_model(aux_from_config(cfg))
    policy = policy_from_config(cfg)
    if policy.kind != "ILP":
        return _LDA_MODELS[(policy.kind, policy.objective)](lda_from_config(cfg), policy.param)
    mc = _section(cfg, "mc")
    n_draws, seed = int(mc.get("samples", 100_000)), int(mc.get("seed", 0))
    return ilp_global_model(ilp_global_sample(lda_from_config(cfg), policy.param, n_draws, seed))


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: a config is a JSON object, got {type(cfg).__name__}")
    return cfg
