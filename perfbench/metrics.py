"""Metric arithmetic of the benchmark, kept free of I/O so it can be tested.

Every function here is pure: run.py feeds it the raw measurements the
C++ measurement program prints, and test_metrics.py pins its behaviour.
"""

import math
import statistics
from fractions import Fraction

# Paper-reported averages (DR-STRaNGe vs RNG-oblivious, dual-core
# workloads): Fig. 6 non-RNG and RNG execution time, Fig. 9 unfairness.
# The simulator is validated only against these averages, not against
# per-application bars.
PAPER_GAIN_PCT = {
    "nonrng": 17.9,
    "rng": 25.1,
    "unfair": 32.1,
}

# Host times are reported at the speed of a host on which one run of the
# host-speed probe (src/probe.h) takes this long: its median on a quiet
# 4-vCPU Intel Xeon VM. The constant only sets the scale; what cancels
# the host's drift is dividing each cell by the probes run around it.
PROBE_REFERENCE_MS = 2.4
# Probes on each side of a cell whose median scales it: host speed moves
# on a scale of a few hundred ms, the length of a handful of cells.
PROBE_HALF_WINDOW = 2


def _rank(n, p):
    """1-based nearest rank ceil(p * n), computed exactly."""
    if n <= 0:
        raise ValueError("percentile of an empty sample")
    frac = Fraction(str(p))
    if not 0 < frac <= 1:
        raise ValueError(f"percentile {p} outside (0, 1]")
    return max(1, math.ceil(frac * n))


def nearest_rank(values, p):
    """Nearest-rank percentile: the ceil(p * n)-th smallest value."""
    return sorted(values)[_rank(len(values), p) - 1]


def tail_percentile(values, p, beyond=10):
    """nearest_rank(), refusing a tail with fewer than `beyond` samples
    above the chosen one, so a reported tail is never one outlier."""
    n = len(values)
    above = n - _rank(n, p)
    if above < beyond:
        raise ValueError(
            f"p{float(p) * 100:g} of {n} samples has {above} beyond it; "
            f"needs {beyond}")
    return nearest_rank(values, p)


def median_per_cell(samples, cells_per_pass):
    """Each cell's median time over the passes of a run. `samples` holds
    whole passes in order, so cell i's times are samples[i::k]. On a
    shared host, interference comes in phases that slow a whole pass;
    the per-cell median follows the host's typical state, where the
    fastest pass would depend on whether a run happened to catch a rare
    quiet phase."""
    k = cells_per_pass
    if k <= 0 or not samples or len(samples) % k:
        raise ValueError(f"{len(samples)} samples are not whole passes "
                         f"of {k} cells")
    return [statistics.median(samples[i::k]) for i in range(k)]


def rolling_median(values, half_window):
    """Median of each value's neighbourhood: values[i - h .. i + h],
    cut at the ends."""
    h = half_window
    return [statistics.median(values[max(0, i - h):i + h + 1])
            for i in range(len(values))]


def at_reference_speed(samples, probes, reference_ms=PROBE_REFERENCE_MS,
                       half_window=PROBE_HALF_WINDOW):
    """Host times scaled to a host on which the probe takes
    `reference_ms`. probes[i] is the probe run right after samples[i],
    both in time order; each sample is scaled by the rolling median of
    the probes around it, so a host that slows down for a moment slows
    the probes near the cells it slowed as well."""
    if len(samples) != len(probes):
        raise ValueError(f"{len(samples)} samples but {len(probes)} probes")
    local = rolling_median(probes, half_window)
    return [t * reference_ms / p for t, p in zip(samples, local)]


def setup_at_reference_speed(setup_s, probes, per_gap,
                             reference_ms=PROBE_REFERENCE_MS):
    """Set-up times scaled like at_reference_speed(). `probes` holds
    `per_gap` probe runs before each set-up and after the last; set-up k
    is scaled by the median of those just before and just after it."""
    if len(probes) != per_gap * (len(setup_s) + 1):
        raise ValueError(f"{len(probes)} probes do not frame "
                         f"{len(setup_s)} set-ups")
    return [s * reference_ms /
            statistics.median(probes[k * per_gap:(k + 2) * per_gap])
            for k, s in enumerate(setup_s)]


def gain_pct(baseline, design):
    """Percent by which the mean of `design` is below that of
    `baseline` (the paper's 'X% lower' figures)."""
    base = statistics.fmean(baseline)
    return (base - statistics.fmean(design)) / base * 100.0


def err_pp(measured_gain_pct, paper_gain_pct):
    """Absolute gap in percentage points between two gains."""
    return abs(measured_gain_pct - paper_gain_pct)


def self_ms(full_ms, replay_ms):
    """Host time of the layers a tape replay removes (cores or the
    service): full run minus replay. Kept signed: a replay slower than
    the live run (as under fault injection) gives a negative value."""
    return full_ms - replay_ms


def dual_gains(cells):
    """Gains of DR-STRaNGe over RNG-oblivious from the per-cell results
    (dicts with mix, design, nonrng_slowdown, rng_slowdown,
    unfairness). Returns {'nonrng', 'rng', 'unfair'} in percent."""
    by_design = {}
    for c in cells:
        by_design.setdefault(c["design"], {})[c["mix"]] = c
    obl, drs = by_design["oblivious"], by_design["drstrange"]
    mixes = sorted(obl)
    if sorted(drs) != mixes:
        raise ValueError("designs ran different mixes")
    out = {}
    for key, field in (("nonrng", "nonrng_slowdown"),
                       ("rng", "rng_slowdown"),
                       ("unfair", "unfairness")):
        out[key] = gain_pct([obl[m][field] for m in mixes],
                            [drs[m][field] for m in mixes])
    return out


def spread(values):
    """Interquartile range as a share of the median, with the
    quartiles statistics.quantiles(values, n=4) gives."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    if med == 0:
        raise ValueError("spread of a sample with median 0")
    return (q3 - q1) / abs(med)


def spread_check(values, bound):
    """(spread, ok): ok when the spread is at most the bound."""
    s = spread(values)
    return s, s <= bound


def worse_by(first_median, second_median, better):
    """How much worse the second median is than the first, as a share
    of the first (negative when it is better)."""
    if first_median == 0:
        raise ValueError("relative change from a median of 0")
    change = (second_median - first_median) / abs(first_median)
    return change if better == "lower" else -change
