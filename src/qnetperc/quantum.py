"""Closed-form channel and distillation math for memory-assisted entanglement links.

Everything here is a pure function of its inputs.  The model:

- a fiber channel of length d delivers an isotropic (Werner) pair with
  weight p(d) = exp(-d/d0) and fidelity F = (3p+1)/4;
- BBPSSW purification maps two pairs of fidelity F to one pair of higher
  fidelity, succeeding with a known probability;
- nesting purification over n stored pairs boosts fidelity like
  1 - F' ~ (2/3)^(log2 n) (1 - F), which translates a memory budget into
  a communication range;
- a node inside a component of size s can tap m*s memories, so its range
  grows as (m*s)**(eta*alpha).

Distances beyond beta = d0*ln(3) carry strictly zero entanglement
(the channel output becomes separable), so ranges are capped at beta
unless the cap is explicitly disabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Efficiency exponent of nested BBPSSW purification: log2(3/2).
ALPHA_STAR = math.log2(1.5)

_MODES = ("asymptotic", "exact")


@dataclass(frozen=True)
class ChannelModel:
    """Depolarizing fiber channel: decoherence length and fidelity error bound."""

    d0_km: float
    epsilon: float

    def __post_init__(self):
        if not (math.isfinite(self.d0_km) and self.d0_km > 0):
            raise ValueError(f"d0_km must be finite and positive, got {self.d0_km}")
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")

    @property
    def beta_km(self) -> float:
        """Sudden-death length cap d0*ln(3); never stored, always recomputed."""
        return self.d0_km * math.log(3.0)


@dataclass(frozen=True)
class DistillationParams:
    """Memory budget and purification efficiency exponents."""

    m: int
    alpha: float = ALPHA_STAR
    eta: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.m, int) and self.m >= 1):
            raise ValueError(f"m must be a positive integer, got {self.m}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not 0 < self.eta <= 1:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")

    @property
    def effective_exponent(self) -> float:
        """The exponent actually used everywhere: eta * alpha."""
        return self.eta * self.alpha


@dataclass(frozen=True)
class ModelParams:
    """Full parameter bundle consumed by the percolation engine.

    range_mode selects the linearized ("asymptotic") or logarithmic ("exact")
    range formula.  beta_cap clamps every range at d0*ln(3).  size_growth=False
    freezes ranges at the single-node value (point-to-point memory usage);
    with size_growth=True a component of size s uses all m*s memories.
    """

    channel: ChannelModel
    distill: DistillationParams
    range_mode: str = "asymptotic"
    beta_cap: bool = True
    size_growth: bool = True

    def __post_init__(self):
        if self.range_mode not in _MODES:
            raise ValueError(f"range_mode must be one of {_MODES}, got {self.range_mode!r}")

    def base_range_km(self) -> float:
        return base_range(self.channel, self.distill, mode=self.range_mode,
                          beta_cap=self.beta_cap)

    def component_range_km(self, s: int) -> float:
        return component_range(s, self.channel, self.distill, mode=self.range_mode,
                               beta_cap=self.beta_cap, size_growth=self.size_growth)


def channel_p(d_km: float, channel: ChannelModel) -> float:
    """Werner weight of the pair delivered over distance d: exp(-d/d0).

    An unreachable distance (math.inf) maps to p = 0.  The engine works in
    distances and never calls it; it stays, exported by the package, as the
    paper's channel formula.
    """
    if d_km < 0 or math.isnan(d_km):
        raise ValueError(f"distance must be >= 0, got {d_km}")
    return math.exp(-d_km / channel.d0_km)


def fidelity_of_p(p: float) -> float:
    """Fidelity of an isotropic state of weight p: F = (3p+1)/4, in [0.25, 1].

    Exported by the package as one of the paper's channel formulas; the
    engine works in distances and never calls it.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return (3.0 * p + 1.0) / 4.0


def _check_fidelity(f: float) -> None:
    if not 0.25 <= f <= 1.0:
        raise ValueError(f"fidelity must lie in [0.25, 1], got {f}")


def bbpssw_success(f: float) -> float:
    """Success probability of one BBPSSW purification step on two pairs of fidelity F.

    p = F^2 + 2F(1-F)/3 + 5[(1-F)/3]^2
    """
    _check_fidelity(f)
    g = (1.0 - f) / 3.0
    return f * f + 2.0 * f * g + 5.0 * g * g


def bbpssw_fidelity(f: float) -> float:
    """Output fidelity of a successful BBPSSW step.

    F' = [F^2 + (1-F)^2/9] / [F^2 + (2/3)F(1-F) + (5/9)(1-F)^2].
    Improves F only above 0.5; F = 0.25, 0.5 and 1 are fixed points.
    """
    _check_fidelity(f)
    num = f * f + (1.0 - f) ** 2 / 9.0
    return num / bbpssw_success(f)


def nested_distill(f: float, n: int, mode: str = "exact") -> float:
    """Fidelity after nested purification of n stored pairs of fidelity F.

    Exact mode iterates the BBPSSW map floor(log2 n) times (the nested scheme
    halves the pair count per round, so a non-power-of-two n is floored to the
    nearest power of two).  Asymptotic mode returns 1 - (2/3)^(log2 n) (1-F).
    """
    _check_fidelity(f)
    if n < 1:
        raise ValueError(f"pair count must be >= 1, got {n}")
    if mode == "exact":
        rounds = int(math.floor(math.log2(n))) if n > 1 else 0
        out = f
        for _ in range(rounds):
            out = bbpssw_fidelity(out)
        return out
    if mode == "asymptotic":
        return 1.0 - (2.0 / 3.0) ** math.log2(n) * (1.0 - f)
    raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


def base_range(channel: ChannelModel, distill: DistillationParams,
               mode: str = "asymptotic", beta_cap: bool = True) -> float:
    """Single-node communication range r0 in km.

    asymptotic: r0 = (4/3) eps m^(eta*alpha) d0
    exact:      r0 = -d0 ln[1 - (4/3) eps m^(eta*alpha)]

    If the exact-mode log argument is <= 0 the range is infinite, the limit
    of the formula as the argument falls to 0, so r(s) never decreases in s
    in either mode.  With beta_cap the result never exceeds beta.
    """
    return component_range(1, channel, distill, mode=mode, beta_cap=beta_cap)


def component_range(s: int, channel: ChannelModel, distill: DistillationParams,
                    mode: str = "asymptotic", beta_cap: bool = True,
                    size_growth: bool = True) -> float:
    """Range r(s) of a node inside a component of size s (m*s pooled memories)."""
    if not s >= 1:
        raise ValueError(f"component size must be >= 1, got {s}")
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    e = distill.effective_exponent
    pooled = distill.m * s if size_growth else distill.m
    x = (4.0 / 3.0) * channel.epsilon * pooled ** e
    if mode == "asymptotic":
        r = x * channel.d0_km
    else:
        r = math.inf if x >= 1.0 else -channel.d0_km * math.log1p(-x)
    if beta_cap:
        r = min(r, channel.beta_km)
    return r


def swap_p(p_ab: float, p_ac: float) -> float:
    """Werner weight after entanglement swapping at the middle party: p_ab * p_ac.

    Equivalent to adding distances: channel_p(d1)*channel_p(d2) = channel_p(d1+d2).
    The engine adds the distances instead; this stays, exported by the
    package, as the paper's swapping formula.
    """
    for p in (p_ab, p_ac):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"Werner weight must lie in [0, 1], got {p}")
    return p_ab * p_ac
