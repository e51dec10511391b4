"""Shared deterministic corpora, brute-force references and input helpers
for the tests.

The corpora are seeded through the package's own counter-based stream, so
every test run sees byte-identical paths and levels.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from truncvar import GeneratorSpec, generate, make_path, osc_norm, uniform_stream
from truncvar._scan import _machine

level_st = st.floats(min_value=0.01, max_value=10.0, allow_nan=False)


def path_from(vals):
    """The path with ``vals`` at times 0, 1, 2, ..."""
    return make_path(np.arange(len(vals), dtype=float), vals)


def negate(path):
    """The path with every value negated, on the same times."""
    return make_path(path.times, -path.values)


def sup_distance(f, g) -> float:
    """Largest gap between two step paths, taken on the union of their grids
    (where the supremum of two step functions is attained)."""
    t = np.union1d(f.times, g.times)
    fv = f.values[np.searchsorted(f.times, t, side="right") - 1]
    gv = g.values[np.searchsorted(g.times, t, side="right") - 1]
    return float(np.max(np.abs(fv - gv)))


def exhaustive_truncated(values, c: float, mode: int) -> float:
    """Max over all index subsequences of summed clamped increments.

    mode +1 counts rises, -1 falls, 0 absolute increments. Enumerates all
    2^n subsequences, so keep n small. Left-to-right accumulation.
    """
    x = [float(v) for v in values]
    n = len(x)
    if n > 16:
        raise ValueError("exhaustive enumeration is for n <= 16")
    best = 0.0
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if (mask >> i) & 1]
        s = 0.0
        for a, b in zip(idx, idx[1:]):
            if mode > 0:
                d = x[b] - x[a] - c
            elif mode < 0:
                d = x[a] - x[b] - c
            else:
                d = abs(x[b] - x[a]) - c
            if d > 0.0:
                s += d
        if s > best:
            best = s
    return best


def skeleton_scan(values, c):
    """``(up, down, direction, skeleton)`` at level c from the trigger machine
    of ``_machine`` (the native one where the library loads), with the
    skeleton in an n-entry buffer."""
    buf = np.empty(len(values))
    up, down, direction, k = _machine(values, c, skeleton=buf)
    return up, down, direction, buf[:k]


def full_scan_loop(values, c):
    """Per-sample reference scan: the trigger state machine, stepped sample
    by sample, writing every output array as it goes.

    Returns (approx, up, down, kind, extreme, up_times, down_times, lows,
    highs, direction). The first three are the fields of
    ``truncvar._scan.ScanResult``, which ``full_scan`` gives on both of its
    routes; ``detect_regimes`` and ``running_extremes`` give the rest. The
    tests compare the two bit for bit.
    """
    half = c / 2.0
    n = values.shape[0]
    approx = np.empty(n, np.float64)
    up = np.empty(n, np.float64)
    down = np.empty(n, np.float64)
    kind = np.empty(n, np.int8)
    extreme = np.empty(n, np.float64)
    cap = n // 2 + 1
    up_idx = np.empty(cap, np.int64)
    dn_idx = np.empty(cap, np.int64)
    lows = np.empty(cap + 1, np.float64)
    highs = np.empty(cap + 1, np.float64)
    n_up = 0
    n_dn = 0
    n_lo = 0
    n_hi = 0
    direction = 0
    phase = 0
    run_min = values[0]
    run_max = values[0]
    up_sum = 0.0  # closed peak-regime contributions
    down_sum = 0.0  # closed valley-regime contributions
    anchor_min = 0.0
    anchor_max = 0.0

    for j in range(n):
        v = values[j]
        if phase == 0:
            if v < run_min:
                run_min = v
            if v > run_max:
                run_max = v
            if v - run_min >= c:
                direction = 1
                phase = 1
                anchor_min = run_min
                lows[n_lo] = run_min
                n_lo += 1
                up_idx[n_up] = j
                n_up += 1
                run_max = v
                # settle the undecided prefix: constant band at the window min
                m = values[0]
                fc0 = anchor_min + half
                for i in range(j):
                    if values[i] < m:
                        m = values[i]
                    extreme[i] = m
                    approx[i] = fc0
                    up[i] = 0.0
                    down[i] = 0.0
                    kind[i] = 0
                extreme[j] = v
                approx[j] = v - half
                up[j] = up_sum + ((v - anchor_min) - c)
                down[j] = down_sum
                kind[j] = 1
            elif run_max - v >= c:
                direction = 2
                phase = 2
                anchor_max = run_max
                highs[n_hi] = run_max
                n_hi += 1
                dn_idx[n_dn] = j
                n_dn += 1
                run_min = v
                m = values[0]
                fc0 = anchor_max - half
                for i in range(j):
                    if values[i] > m:
                        m = values[i]
                    extreme[i] = m
                    approx[i] = fc0
                    up[i] = 0.0
                    down[i] = 0.0
                    kind[i] = 0
                extreme[j] = v
                approx[j] = v + half
                down[j] = down_sum + ((anchor_max - v) - c)
                up[j] = up_sum
                kind[j] = 2
        elif phase == 1:
            if v > run_max:
                run_max = v
            if run_max - v >= c:
                up_sum = up_sum + ((run_max - anchor_min) - c)
                anchor_max = run_max
                highs[n_hi] = run_max
                n_hi += 1
                dn_idx[n_dn] = j
                n_dn += 1
                phase = 2
                run_min = v
                kind[j] = 2
                extreme[j] = v
                approx[j] = v + half
                up[j] = up_sum
                down[j] = down_sum + ((anchor_max - v) - c)
            else:
                kind[j] = 1
                extreme[j] = run_max
                approx[j] = run_max - half
                up[j] = up_sum + ((run_max - anchor_min) - c)
                down[j] = down_sum
        else:
            if v < run_min:
                run_min = v
            if v - run_min >= c:
                down_sum = down_sum + ((anchor_max - run_min) - c)
                anchor_min = run_min
                lows[n_lo] = run_min
                n_lo += 1
                up_idx[n_up] = j
                n_up += 1
                phase = 1
                run_max = v
                kind[j] = 1
                extreme[j] = v
                approx[j] = v - half
                down[j] = down_sum
                up[j] = up_sum + ((v - anchor_min) - c)
            else:
                kind[j] = 2
                extreme[j] = run_min
                approx[j] = run_min + half
                down[j] = down_sum + ((anchor_max - run_min) - c)
                up[j] = up_sum

    if phase == 0:
        # no trigger anywhere: one flat band through the global minimum
        m = values[0]
        fc0 = run_min + half
        for i in range(n):
            if values[i] < m:
                m = values[i]
            extreme[i] = m
            approx[i] = fc0
            up[i] = 0.0
            down[i] = 0.0
            kind[i] = 0
        lows[n_lo] = run_min
        n_lo += 1
    elif phase == 1:
        highs[n_hi] = run_max
        n_hi += 1
    else:
        lows[n_lo] = run_min
        n_lo += 1

    return (
        approx,
        up,
        down,
        kind,
        extreme,
        up_idx[:n_up].copy(),
        dn_idx[:n_dn].copy(),
        lows[:n_lo].copy(),
        highs[:n_hi].copy(),
        direction,
    )


def step_skeleton_loop(times, values, c):
    """Reference greedy resampling: ``(times, values)`` of the breakpoints.

    The sample-by-sample loop ``optimal_approx.step_skeleton`` replaced; the
    tests compare the two bit for bit.
    """
    half = c / 2.0
    t, v = times, values
    keep = [0]
    held = v[0]
    for j in range(1, len(v)):
        if abs(v[j] - held) > half:
            keep.append(j)
            held = v[j]
    out_t = [float(t[i]) for i in keep]
    out_v = [float(v[i]) for i in keep]
    if out_t[-1] != float(t[-1]):
        out_t.append(float(t[-1]))
        out_v.append(out_v[-1])
    return np.array(out_t, dtype=np.float64), np.array(out_v, dtype=np.float64)


def prefix_total_variation(values: np.ndarray) -> np.ndarray:
    """Running sum of absolute increments, starting at 0."""
    return np.concatenate([[0.0], np.cumsum(np.abs(np.diff(values)))])


def monotone_parts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimal nondecreasing decomposition of a step sequence.

    Returns the running positive and negative variations, both starting
    at 0; their difference reconstructs values - values[0].
    """
    steps = np.diff(values)
    up = np.concatenate([[0.0], np.cumsum(np.maximum(steps, 0.0))])
    down = np.concatenate([[0.0], np.cumsum(np.maximum(-steps, 0.0))])
    return up, down


def persistence_union_find(values) -> np.ndarray:
    """Sorted positive 0-dimensional persistence of the samples, plus osc.

    For the sublevel filtration of ``x`` and then of ``-x``: visit the
    samples by (value, index), start a class at each, and join it to each
    neighbour already visited; when a join merges two classes, the younger
    one (visited later) dies, pairing its first value with the current one.
    The finite pair values, then ``max - min``, keep only those above 0.
    """
    x = [float(v) for v in values]
    out = []
    for sign in (1.0, -1.0):
        y = [sign * v for v in x]
        order = sorted(range(len(y)), key=lambda i: (y[i], i))
        rank = {i: r for r, i in enumerate(order)}
        parent = {}

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        for i in order:
            parent[i] = i
            for j in (i - 1, i + 1):
                if j in parent:
                    a, b = find(i), find(j)
                    if a != b:
                        young, old = (a, b) if rank[a] > rank[b] else (b, a)
                        out.append(y[i] - y[young])
                        parent[young] = old
    out.append(max(x) - min(x))
    return np.sort(np.array([q for q in out if q > 0.0], dtype=np.float64))


_KIND_CYCLE = ("random-walk", "jump-mixture", "near-threshold-oscillator", "ramp")


def mixed_corpus(count: int, seed: int = 2024, min_len: int = 2, max_len: int = 200):
    """Deterministic list of (path, level) pairs over mixed generators.

    Levels are drawn from (0, 2*osc]. Value magnitudes are kept modest so
    absolute 1e-12 identities have comfortable float64 headroom.
    """
    u = uniform_stream(seed, 5 * count)
    out = []
    for i in range(count):
        kind = _KIND_CYCLE[i % len(_KIND_CYCLE)]
        span = max_len - min_len + 1
        n = min_len + int(u[5 * i] * span)
        n = min(n, max_len)
        extra = {}
        if kind == "jump-mixture":
            scale = 0.05 + 0.25 * u[5 * i + 1]
            extra = {"jump_prob": 0.02 + 0.2 * u[5 * i + 2], "jump_scale": 5.0}
        elif kind == "near-threshold-oscillator":
            scale = 1.0
            extra = {
                "target_level": 0.2 + u[5 * i + 2],
                "amplitude_ratio": 0.5 + u[5 * i + 3],
            }
        elif kind == "ramp":
            scale = 0.02 + 0.08 * u[5 * i + 1]
        else:
            scale = 0.05 + 0.45 * u[5 * i + 1]
        spec = GeneratorSpec(kind, n, seed=seed + 1000 + i, scale=scale, extra=extra)
        path = generate(spec)
        osc = osc_norm(path)
        c = (1.0 - u[5 * i + 4]) * 2.0 * osc if osc > 0 else 1.0
        out.append((path, c))
    return out


def write_columns_per_row(dest, header, columns) -> None:
    """Reference column writer: one ``repr(float(x))`` per number, one row at
    a time, the whole file built in memory. ``pathio.write_columns`` must
    write the same bytes."""
    rows = [",".join(header)]
    for row in zip(*columns):
        rows.append(",".join(repr(float(x)) for x in row))
    Path(dest).write_text("\n".join(rows) + "\n", encoding="utf-8")
