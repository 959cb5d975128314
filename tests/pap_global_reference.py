"""Frozen nested-quadrature version of the PAP-global stop-loss transform.

This is ``PapGlobalGain.stop_loss`` as it stood before the inner quadrature
moved to one fixed composite grid: for every ``delta``, every residual count
``rr`` and every outer node ``q`` it builds its own ``n_inner``-node
Gauss-Legendre rule on ``(lo_q, delta)``.  It keeps the same 128-node outer
grid, so at a converged ``n_inner`` it is the accuracy reference for the
composite inner grid.  Do not optimise it.
"""

import numpy as np

from multistop.distributions import _ig_cdf, _ig_pdf, _ig_tails


def _gig_half_cdf(x, alpha, beta):
    """CDF of GIG(alpha, beta, +1/2): the ``G`` of IG(sqrt(beta / alpha), beta)."""
    return _ig_tails(x, np.sqrt(np.asarray(beta) / np.asarray(alpha)), beta)[2]


class ReferencePapGlobal:
    def __init__(self, lda, attachment, n_outer=128, n_inner=64):
        self.attachment = attachment
        mu, lam = lda.severity.mu, lda.severity.lam
        self._mu, self._lam = mu, lam
        self._alpha = lam / mu**2
        m_max = lda.m_max
        self._m_max = m_max
        mix = lda.mixture()
        self.prob_zero_gain = mix.p0 + float(np.sum(mix.pm * mix.tails(attachment).cdf))

        t, w = np.polynomial.legendre.leggauss(n_outer)
        half = 0.5 * attachment
        nodes, wts = half * (t + 1.0), half * w
        self._u = attachment - nodes
        h = np.zeros((m_max, nodes.size))
        for i in range(1, m_max):
            dens = wts * _ig_pdf(nodes, i * mu, i * i * lam)
            for r in range(0, m_max - i):
                h[r] += mix.pm[i + r] * dens
        self._h = h
        self._pr1 = mix.pm
        self._ti, self._wi = np.polynomial.legendre.leggauss(n_inner)
        x_hi = max(mu, attachment)
        while float(_ig_cdf(np.asarray(x_hi), mu, lam)) < 1.0 - 1e-15:
            x_hi *= 2.0
        self._x_hi = x_hi
        s_cap = max(m_max * mu, 1.0)
        while float(_ig_cdf(np.asarray(s_cap), m_max * mu, m_max * m_max * lam)) < 1.0 - 1e-15:
            s_cap *= 2.0
        self._s_cap = s_cap

    def _reduce(self, psi_u, psi_att):
        return float(np.sum(self._h * psi_u) + np.sum(self._pr1 * psi_att[:, 0]))

    def _psi_max(self, u, c1, c2):
        delta = c2 - c1
        b0 = np.maximum(u, delta)
        tail_x = 1.0 - _ig_cdf(b0, self._mu, self._lam)
        tail_first = self._mu * (1.0 - _gig_half_cdf(b0, self._alpha, self._lam))
        r = np.arange(self._m_max)[:, None]
        out = (c1 + r * self._mu) * tail_x[None, :] + tail_first[None, :]
        low = u < delta
        if np.any(low):
            ulo = u[low]
            f_delta = float(_ig_cdf(np.asarray(delta), self._mu, self._lam))
            out[:, low] += c2 * (f_delta - _ig_cdf(ulo, self._mu, self._lam))[None, :]
            lo = np.maximum(ulo, delta - self._s_cap)
            hi = min(delta, self._x_hi)
            has = lo < hi
            if np.any(has) and self._m_max > 1:
                lo = lo[has]
                half = 0.5 * (hi - lo)
                x = lo[:, None] + half[:, None] * (self._ti[None, :] + 1.0)
                w = half[:, None] * self._wi[None, :]
                fx = w * _ig_pdf(x, self._mu, self._lam)
                y = delta - x
                rows = np.nonzero(low)[0][has]
                for rr in range(1, self._m_max):
                    fs_bar = 1.0 - _ig_cdf(y, rr * self._mu, rr * rr * self._lam)
                    fh_bar = 1.0 - _gig_half_cdf(y, self._alpha, rr * rr * self._lam)
                    stop_loss = rr * self._mu * fh_bar - y * fs_bar
                    out[rr, rows] += np.sum(fx * stop_loss, axis=1)
        return out

    def stop_loss(self, delta):
        att = np.array([self.attachment])
        return np.array([
            self._reduce(self._psi_max(self._u, 0.0, d), self._psi_max(att, 0.0, d))
            + d * (self.prob_zero_gain - 1.0)
            for d in np.asarray(delta, dtype=float).tolist()
        ])
