"""Frozen per-``delta`` inner integral of the PAP-global stop-loss transform.

``ReferencePapInner`` is ``PapGlobalGain`` with ``_inner`` and
``stop_loss`` as they stood when the inner integral took one ``d`` at a
time and evaluated the IG-sum tails ``1 - F`` and ``1 - G`` of ``S_r`` at
every residual count ``r`` and every node, in one call.  Only those two
methods are frozen: the construction is inherited from the live model (its
own frozen copy is ``pap_law_reference``), so a table of this reference
equals the live model's table exactly when the two inner integrals agree
bit for bit.  Do not optimise or tidy this file.
"""

import math

import numpy as np

from multistop.distributions import _ig_tails
from multistop.policies import PapGlobalGain

SEG_NODES = 8
GRADE = 0.5


class ReferencePapInner(PapGlobalGain):
    def _inner(self, d):
        cuts, p = self._cuts, SEG_NODES
        a, b = max(cuts[0], d - self._s_cap), min(d, self._x_hi)
        if not a < b:
            return 0.0
        s_lo = int(np.searchsorted(cuts, a, "right")) - 1
        s_hi = int(np.searchsorted(cuts, b, "left")) - 1
        right = cuts[s_lo + 1 : s_hi + 2]
        width = right - cuts[s_lo : s_hi + 1]
        near = np.flatnonzero(width > (d - right) * (1.0 / GRADE - 1.0))
        s_near = s_lo + int(near[0]) if near.size else s_hi + 1
        x, hx = self._x[s_lo * p : s_near * p], self._hx[:, s_lo * p : s_near * p]
        if s_near <= s_hi:
            d0, d_end = d - cuts[s_near], max(d - b, self._y_lin)
            n_grade = max(math.ceil(math.log(d0 / d_end) / -math.log(GRADE)) - 1, 0)
            ladder = d - d0 * GRADE ** np.arange(1, n_grade + 1)
            inside = cuts[s_near + 1 : s_hi + 1]
            pts = np.unique(np.concatenate(([cuts[s_near], b], inside, ladder)))
            x_new, wf = self._pieces(pts[:-1], pts[1:])
            seg = np.searchsorted(cuts, 0.5 * (pts[:-1] + pts[1:]), "right") - 1
            x = np.concatenate((x, x_new))
            hx = np.concatenate((hx, np.repeat(self._seg_h[:, seg], p, axis=1) * wf), axis=1)
        y = d - x
        rr = self._rr
        _, fs_bar, _, fh_bar = _ig_tails(y, rr * self._mu, rr * rr * self._lam)
        return float(np.sum((rr * self._mu * fh_bar - y * fs_bar) * hx))

    def stop_loss(self, delta):
        inner = np.array([self._inner(d) for d in delta.tolist()])
        return self._gap_terms(delta) + inner + delta * (self.prob_zero_gain - 1.0)
