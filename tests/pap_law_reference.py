"""Frozen construction of the two PAP gain models, from before they shared
one crossing law.

``ReferencePapLocal`` and ``ReferencePapGlobal`` build every array their
model's ``stop_loss`` reads the way the models built them when each one
laid its own Gauss-Legendre grid on ``(0, attachment)``, ran its own loop of
IG-sum densities over the loss count and took its own single-loss tails.
Only the construction is frozen: ``stop_loss`` and the inner quadrature are
inherited from the live models, so a table of a reference equals the live
model's table exactly when the two constructions agree bit for bit.  Do not
optimise or tidy this file.
"""

import math

import numpy as np

from multistop.distributions import _ig_cdf, _ig_pdf, _ig_tails, poisson_sf
from multistop.policies import PapGlobalGain, PapLocalGain
from multistop.stopping import StopLossGain

LOCAL_NODES = 256
GLOBAL_GAPS = 128
SEG_NODES = 8
TAIL_PER_OCTAVE = 32


def _leggauss(n, lo, hi):
    t, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (t + 1.0), half * w


class ReferencePapLocal(PapLocalGain):
    def __init__(self, lda, attachment):
        self.lda = lda
        self.attachment = attachment
        mu, lam = lda.severity.mu, lda.severity.lam
        mix = self._mix = lda.mixture()
        at_att = mix.tails(attachment)
        self._f_att = at_att.cdf

        nodes, wts = _leggauss(LOCAL_NODES, 0.0, attachment)
        self._nodes = nodes
        cross = _ig_tails(attachment - nodes, mu, lam)[1]
        g = np.zeros(LOCAL_NODES)
        for j in range(2, lda.m_max + 1):
            prev = j - 1
            dens = _ig_pdf(nodes, prev * mu, prev * prev * lam)
            p_at_least_j = poisson_sf(j - 1, lda.frequency)
            g += p_at_least_j * wts * cross * dens
        self._g = g
        self._atom = mix.p0 + (1.0 - mix.p0) * float(_ig_tails(attachment, mu, lam)[1])
        mean_cross = float(np.sum(nodes * g))
        mean_never = float(np.sum(mix.pm * at_att.lower_mean))
        StopLossGain.__init__(self, -(mean_cross + mean_never))

    def total_mass(self):
        never = float(np.sum(self._mix.pm * self._f_att))
        return self._atom + float(np.sum(self._g)) + never


class ReferencePapGlobal(PapGlobalGain):
    def __init__(self, lda, attachment):
        self.lda = lda
        self.attachment = attachment
        mu, lam = lda.severity.mu, lda.severity.lam
        self._mu, self._lam = mu, lam
        m_max = lda.m_max
        mix = lda.mixture()
        self.prob_zero_gain = mix.p0 + float(np.sum(mix.pm * mix.tails(attachment).cdf))

        nodes, wts = _leggauss(GLOBAL_GAPS, 0.0, attachment)
        self._u = attachment - nodes
        h = np.zeros((m_max, nodes.size))
        for i in range(1, m_max):
            dens = wts * _ig_pdf(nodes, i * mu, i * i * lam)
            for r in range(0, m_max - i):
                h[r] += mix.pm[i + r] * dens
        x_hi = max(mu, attachment)
        while float(_ig_cdf(np.asarray(x_hi), mu, lam)) < 1.0 - 1e-15:
            x_hi *= 2.0
        self._x_hi = x_hi
        s_cap = max(m_max * mu, 1.0)
        while float(_ig_cdf(np.asarray(s_cap), m_max * mu, m_max * m_max * lam)) < 1.0 - 1e-15:
            s_cap *= 2.0
        self._s_cap = s_cap
        y_lin = mu
        while float(_ig_cdf(np.asarray(y_lin), mu, lam)) > 1e-17:
            y_lin *= 0.5
        self._y_lin = y_lin

        r = np.arange(m_max)
        self._gaps = np.append(self._u, attachment)
        self._gap_w = np.append(h.sum(axis=0), mix.pm.sum())
        self._gap_rw = np.append(r @ h, r @ mix.pm)
        self._gap_f, self._gap_sf, _, gap_gig_sf = _ig_tails(self._gaps, mu, lam)
        self._gap_tail_first = mu * gap_gig_sf
        StopLossGain.__init__(self, float(self._gap_terms(np.zeros(1))[0]))

        n_tail = math.ceil(TAIL_PER_OCTAVE * math.log2(x_hi / attachment))
        order = np.argsort(self._u)
        cuts = np.concatenate((self._u[order], np.geomspace(attachment, x_hi, n_tail + 1)))
        steps = np.cumsum(np.concatenate((h[1:, order], mix.pm[1:, None]), axis=1), axis=1)
        self._cuts = cuts
        self._seg_h = steps[:, np.minimum(np.arange(cuts.size - 1), steps.shape[1] - 1)]
        self._t, self._w = np.polynomial.legendre.leggauss(SEG_NODES)
        self._x, wf = self._pieces(cuts[:-1], cuts[1:])
        self._hx = np.repeat(self._seg_h, SEG_NODES, axis=1) * wf
        self._rr = np.arange(1, m_max)[:, None]
