"""Independent reference implementations the tests compare against.

Everything here is written directly from the defining formulas with plain
loops and no imports from the package under test, so a shared bug cannot
cancel out. Slow on purpose; only run at test scale. Two oracles read a
package object they are handed, and nothing else of it: tau_by_bisection
reads the per-symbol tables of a ThresholdTables, and scalar_decode reads a
SlotDecoder's thresholds and score contexts. exact_errors_by_chunks calls a
SlotDecoder's decide() and group_ids().
"""

import itertools
import math

import numpy as np


def gallager_e0(rows, law, rho):
    """E0(rho) = -log sum_y (sum_x q(x) p(y|x)^(1/(1+rho)))^(1+rho)."""
    total = 0.0
    for y in range(len(rows[0])):
        inner = 0.0
        for x in range(len(law)):
            inner += law[x] * rows[x][y] ** (1.0 / (1.0 + rho))
        total += inner ** (1.0 + rho)
    return -math.log(total)


def gallager_exponent_sweep(rows, law, rate, points=20001):
    """max over a dense rho in (0, 1] of E0(rho) - rho * rate."""
    best = -math.inf
    for i in range(1, points + 1):
        rho = i / points
        best = max(best, gallager_e0(rows, law, rho) - rho * rate)
    return best


def mi_conditional(probs, laws, subset):
    """I(X_Sbar; Y | X_S) by direct summation over the joint distribution.

    probs: nested-indexable tensor probs[x1]...[xK][y]; laws: list of per-user
    input laws; subset: 0-based conditioned user indices.
    """
    k = len(laws)
    a = len(laws[0])
    arr = np.asarray(probs, dtype=float)
    b = arr.shape[-1]
    p_y_given_s = {}
    for xs in itertools.product(range(a), repeat=len(subset)):
        for y in range(b):
            num = 0.0
            for xall in itertools.product(range(a), repeat=k):
                if any(xall[u] != v for u, v in zip(subset, xs)):
                    continue
                w = 1.0
                for u in range(k):
                    if u not in subset:
                        w *= laws[u][xall[u]]
                num += w * arr[xall][y]
            p_y_given_s[(xs, y)] = num
    total = 0.0
    for xall in itertools.product(range(a), repeat=k):
        w = 1.0
        for u in range(k):
            w *= laws[u][xall[u]]
        xs = tuple(xall[u] for u in subset)
        for y in range(b):
            joint = w * arr[xall][y]
            if joint > 0:
                total += joint * (math.log(arr[xall][y])
                                  - math.log(p_y_given_s[(xs, y)]))
    return total


def conditional_mi_chain(probs, laws, subset):
    """I(X_Sbar; Y | X_S) by the chain rule H(Y | X_S) - H(Y | X).

    Same arguments as mi_conditional; both conditional entropies are summed
    from p(y | x_S) and p(y | x) with plain loops, 0 log 0 taken as 0.
    """
    k = len(laws)
    a = len(laws[0])
    arr = np.asarray(probs, dtype=float)
    b = arr.shape[-1]
    h_given_s = 0.0
    for xs in itertools.product(range(a), repeat=len(subset)):
        w_s = 1.0
        for u, v in zip(subset, xs):
            w_s *= laws[u][v]
        for y in range(b):
            p_y = 0.0  # p(y | x_S)
            for xall in itertools.product(range(a), repeat=k):
                if any(xall[u] != v for u, v in zip(subset, xs)):
                    continue
                w = 1.0
                for u in range(k):
                    if u not in subset:
                        w *= laws[u][xall[u]]
                p_y += w * arr[xall][y]
            if p_y > 0:
                h_given_s -= w_s * p_y * math.log(p_y)
    h_given_x = 0.0
    for xall in itertools.product(range(a), repeat=k):
        w = 1.0
        for u in range(k):
            w *= laws[u][xall[u]]
        for y in range(b):
            p = arr[xall][y]
            if p > 0:
                h_given_x -= w * p * math.log(p)
    return h_given_s - h_given_x


def effective_rows(probs, laws, keep):
    """Marginalize the complement users out of probs under their laws.

    keep: 0-based user indices retained, ascending; returns a tensor indexed
    by the kept users' symbols then y.
    """
    arr = np.asarray(probs, dtype=float)
    k = len(laws)
    a = len(laws[0])
    b = arr.shape[-1]
    out_shape = (a,) * len(keep) + (b,)
    out = np.zeros(out_shape)
    for xk in itertools.product(range(a), repeat=len(keep)):
        for y in range(b):
            total = 0.0
            for xall in itertools.product(range(a), repeat=k):
                if any(xall[u] != v for u, v in zip(keep, xk)):
                    continue
                w = 1.0
                for u in range(k):
                    if u not in keep:
                        w *= laws[u][xall[u]]
                total += w * arr[xall][y]
            out[xk + (y,)] = total
    return out


def em_objective_direct(subset, true_idx, comp_idx, probs_true, probs_comp,
                        laws_by_rate, rates_by_user, rho, s, k, a):
    """The misdetection objective at one (rho, s), from the printed formula.

    laws_by_rate[(u, i)]: input law; rates_by_user[u]: menu (1-based index);
    true_idx / comp_idx: per-user rate indices. Channels indexed [x1..xK][y].

    For small rho the power s/rho is large and p2 ** (s/rho) underflows to 0,
    so pmax = max p2 is factored out of the competing sum:
    f2 ** rho = (sum w2 (p2/pmax) ** (s/rho)) ** rho * pmax ** s.
    """
    pt = np.asarray(probs_true, dtype=float)
    pc = np.asarray(probs_comp, dtype=float)
    b = pt.shape[-1]
    sbar = [u for u in range(1, k + 1) if u not in subset]
    rate_sum = sum(rates_by_user[u - 1][comp_idx[u - 1] - 1] for u in sbar)
    outer = 0.0
    subset_users = sorted(subset)
    for xs in itertools.product(range(a), repeat=len(subset_users)):
        w_s = 1.0
        for u, v in zip(subset_users, xs):
            w_s *= laws_by_rate[(u, true_idx[u - 1])][v]
        for y in range(b):
            terms = []
            for xbar in itertools.product(range(a), repeat=len(sbar)):
                xall = [0] * k
                for u, v in zip(subset_users, xs):
                    xall[u - 1] = v
                for u, v in zip(sbar, xbar):
                    xall[u - 1] = v
                w1 = 1.0
                w2 = 1.0
                for u, v in zip(sbar, xbar):
                    w1 *= laws_by_rate[(u, true_idx[u - 1])][v]
                    w2 *= laws_by_rate[(u, comp_idx[u - 1])][v]
                terms.append((w1, pt[tuple(xall)][y], w2, pc[tuple(xall)][y]))
            pmax = max(p2 for _, _, _, p2 in terms)
            if pmax == 0:
                continue
            f1 = 0.0
            f2_scaled = 0.0
            for w1, p1, w2, p2 in terms:
                f1 += w1 * (p1 ** (1.0 - s) if p1 > 0 else 0.0)
                f2_scaled += w2 * ((p2 / pmax) ** (s / rho) if p2 > 0 else 0.0)
            outer += w_s * f1 * (f2_scaled ** rho) * pmax ** s
    return -rho * rate_sum - math.log(outer)


def ei_objective_direct(subset, true_idx, comp_idx, probs_true, probs_comp,
                        laws_by_rate, rates_by_user, rho, s, k, a):
    """The confusion/atypicality objective at one (rho, s), printed formula."""
    pt = np.asarray(probs_true, dtype=float)
    pc = np.asarray(probs_comp, dtype=float)
    b = pt.shape[-1]
    sbar = [u for u in range(1, k + 1) if u not in subset]
    rate_sum = sum(rates_by_user[u - 1][true_idx[u - 1] - 1] for u in sbar)
    outer = 0.0
    subset_users = sorted(subset)
    for xs in itertools.product(range(a), repeat=len(subset_users)):
        w_s = 1.0
        for u, v in zip(subset_users, xs):
            w_s *= laws_by_rate[(u, true_idx[u - 1])][v]
        for y in range(b):
            f1 = 0.0
            f2 = 0.0
            for xbar in itertools.product(range(a), repeat=len(sbar)):
                xall = [0] * k
                for u, v in zip(subset_users, xs):
                    xall[u - 1] = v
                for u, v in zip(sbar, xbar):
                    xall[u - 1] = v
                w1 = 1.0
                w2 = 1.0
                for u, v in zip(sbar, xbar):
                    w1 *= laws_by_rate[(u, true_idx[u - 1])][v]
                    w2 *= laws_by_rate[(u, comp_idx[u - 1])][v]
                p1 = pt[tuple(xall)][y]
                p2 = pc[tuple(xall)][y]
                f1 += w1 * (p1 ** (s / (s + rho)) if p1 > 0 else 0.0)
                f2 += w2 * p2
            outer += w_s * (f1 ** (s + rho)) * (f2 ** (1.0 - s))
    return -rho * rate_sum - math.log(outer)


def probe_rows(rho_vals, s_window, s_grid, s_limit, gallager_points, eps):
    """One optimiser round's flat (rho, s) probes, built a rho row at a time.

    Rows with s_limit(rho) < eps are skipped. Each other row is an
    np.linspace of s_grid points over s_window clipped to [eps,
    s_limit(rho)] (s_window None: the whole of it). With gallager_points the
    row is merged, as a set, with rho / (1 + rho) when that lies in
    [eps, s_limit(rho)]; other rows keep any duplicate points.
    """
    rows = []
    for rho in rho_vals:
        rho = float(rho)
        s_hi = s_limit(rho)
        if s_hi < eps:
            continue
        if s_window is None:
            s_lo, s_top = eps, s_hi
        else:
            s_lo = min(max(s_window[0], eps), s_hi)
            s_top = max(min(s_window[1], s_hi), s_lo)
        s_vals = list(np.linspace(s_lo, s_top, s_grid))
        if gallager_points:
            sg = rho / (1.0 + rho)
            if eps <= sg <= s_hi:
                s_vals = sorted(set(s_vals) | {sg})
        rows.append((rho, s_vals))
    return (np.array([rho for rho, s_vals in rows for _ in s_vals], dtype=float),
            np.array([s for _, s_vals in rows for s in s_vals], dtype=float))


def pairwise_tail(p, d):
    """Error probability of binary ML between two codewords at Hamming
    distance d over a crossover-p channel, ties counted as errors."""
    q = 1.0 - p
    total = 0.0
    for j in range(d // 2 + 1, d + 1):
        total += math.comb(d, j) * p ** j * q ** (d - j)
    if d % 2 == 0:
        total += math.comb(d, d // 2) * p ** (d // 2) * q ** (d // 2)
    return total


def two_codeword_ml_error(p, cw_a, cw_b):
    """Same quantity by brute enumeration of every output word.

    Crossover below one half, so likelihood order is the reverse of
    Hamming-distance order and likelihood ties are distance ties exactly;
    comparing integer distances keeps the tie set free of rounding."""
    n = len(cw_a)
    q = 1.0 - p
    err = 0.0
    for y in itertools.product((0, 1), repeat=n):
        da = sum(yj != aj for yj, aj in zip(y, cw_a))
        db = sum(yj != bj for yj, bj in zip(y, cw_b))
        if db <= da:  # rival at least as likely: loss or tie, both errors
            err += p ** da * q ** (n - da)
    return err


def partition_count(num_users, region_size):
    return (2 ** (num_users - 1)) ** region_size


def symbols_by_searchsorted(cum, u):
    """Input symbol of each uniform u under the cumulative law cum: the first
    letter whose cumulative mass exceeds u, capped at the last letter when
    rounding leaves cum[-1] at or below u."""
    idx = np.searchsorted(cum, u, side="right")
    return np.minimum(idx, len(cum) - 1)


def tau_by_bisection(y, tables, n, tol=1e-12, max_iter=400):
    """Root of the threshold balance equation by bracketing bisection.

    The balance gap is evaluated from the per-symbol tables of `tables` (a
    ThresholdTables) but never rearranged into the closed form.
    """
    y = np.asarray(y, dtype=np.int64)
    counts = np.bincount(y, minlength=tables.log_a.shape[0]).astype(float)
    sum_a = float(counts @ tables.log_a)
    sum_b = float(counts @ tables.log_b)
    sum_c = float(counts @ tables.log_c)

    def gap(tau):
        lhs = sum_c - n * tables.s1 * tau
        rhs = (sum_a + tables.rho_tilde * sum_b + n * tables.s2 * tau
               + n * tables.rho_tilde * tables.rate_sum)
        return lhs - rhs

    lo, hi = -1.0, 1.0
    for _ in range(200):
        if gap(lo) > 0:
            break
        lo *= 2.0
    for _ in range(200):
        if gap(hi) < 0:
            break
        hi *= 2.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


def scalar_decode(decoder, y, codebooks):
    """The threshold decoder's decision on one received word, scored one
    candidate tuple at a time: (messages, rate vector, channel id), or None
    for a collision.

    It shares the SlotDecoder's thresholds (None: the test never rejects)
    and per-block score contexts on purpose: analytically tied likelihoods
    must tie bit for bit on both sides. What it checks is the decision rule
    applied to them. codebooks needs only codeword(user, rate index, message).
    """
    y = np.asarray(y, dtype=np.int64)
    k, n = decoder.num_users, decoder.n
    y_counts = np.bincount(y, minlength=decoder.output_size).astype(float)
    blocks = list(decoder._blocks)  # the rate vectors' order in _scorers
    scored = []
    for rvi, cid in decoder.region.members:
        scorers = decoder._scorers[blocks.index(rvi.indices)]
        row = decoder._blocks[rvi.indices][3].index(cid)  # cid's table there
        ranges = [range(decoder.message_counts[(u, rvi.index(u))])
                  for u in range(1, k + 1)]
        for msgs in itertools.product(*ranges):
            code = np.zeros(n, dtype=np.int64)
            for u in range(1, k + 1):
                code = code * decoder.input_size + codebooks.codeword(
                    u, rvi.index(u), msgs[u - 1])
            counts = np.bincount(code * decoder.output_size + y,
                                 minlength=decoder.cells)[:, None]
            tested, rival = (ctx.score_counts(counts, ctx.onehot, _scratch)[row, 0]
                             for ctx in (scorers[0], scorers[-1]))
            scored.append((msgs, rvi, cid, tested, rival))
    estimates = []
    for subset in decoder.subsets:
        thr = {}
        for (pair, key_subset), tables in decoder.thresholds.items():
            if key_subset == subset:
                tau = math.inf if tables is None \
                    else tables.taus(y_counts[None, :], n)[0]
                thr[pair] = -n * tau
        est = _subset_estimate(scored, thr, decoder.ids)
        if est is None:
            return None
        estimates.append(est)
    if len({(msgs, rvi.indices, cid) for msgs, rvi, cid in estimates}) > 1:
        return None
    return estimates[0]


def _scratch(name, shape, dtype=float):
    """A fresh array for each of score_counts' arrays."""
    return np.empty(shape, dtype)


def _subset_estimate(scored, thr, ids):
    """Estimate of one conditioning subset: the tuple admitted under some
    channel whose tested score strictly beats the typical rival score of
    every other (messages, rate vector) group; under several channels the
    higher tested score wins, then the earlier id. None unless exactly one
    group dominates."""
    rival_by_group = {}
    for msgs, rvi, cid, _, rival in scored:
        group = (msgs, rvi.indices)
        if rival > thr[(rvi.indices, cid)]:
            rival_by_group[group] = max(rival, rival_by_group.get(group, -math.inf))
    best = None
    for msgs, rvi, cid, tested, _ in scored:
        group = (msgs, rvi.indices)
        if not tested > thr[(rvi.indices, cid)]:
            continue
        rival_max = max((v for g, v in rival_by_group.items() if g != group),
                        default=-math.inf)
        if not tested > rival_max:
            continue
        if best is None:
            best = (msgs, rvi, cid, tested)
        elif group != (best[0], best[1].indices):
            return None  # two distinct groups cannot both strictly dominate
        elif tested > best[3] or (tested == best[3]
                                  and ids.index(cid) < ids.index(best[2])):
            best = (msgs, rvi, cid, tested)
    return None if best is None else best[:3]


def exact_errors_by_chunks(decoder, schedule, channels, codebooks, block=4096):
    """The exact conditional error probability of each (rate vector, id,
    in region) case of schedule under one fixed codebook, by the chunked
    per-symbol loop: output words in lexicographic order, `block` at a time,
    made by integer division and decided chunk by chunk; every message
    tuple's log-likelihood of a chunk gathered symbol by symbol, and the
    probabilities of its wrong words added word by word in word order.
    channels maps an id to its probs array (inputs..., outputs); codebooks
    needs entries and codeword(user, rate index, message).
    """
    n, b = decoder.n, decoder.output_size
    users = range(1, decoder.num_users + 1)
    place = b ** np.arange(n - 1, -1, -1, dtype=np.int64)
    chunks = [(start, np.arange(start, min(start + block, b ** n))[:, None]
               // place % b) for start in range(0, b ** n, block)]
    group = np.concatenate([decoder.decide(ys, {
        key: np.broadcast_to(codebooks.entries[key][:m], (len(ys), m, n))
        for key, m in decoder.message_counts.items()})[0] for _, ys in chunks])
    probabilities = []
    for rvi, cid, in_region in schedule:
        probs = np.asarray(channels[cid], dtype=float)
        log_p = np.full(probs.shape, -np.inf)
        np.log(probs, out=log_p, where=probs > 0)
        tuples = list(itertools.product(*(
            range(decoder.message_counts[(u, rvi.index(u))]) for u in users)))
        total = 0.0
        for msgs, key in zip(tuples, decoder.group_ids(rvi, np.array(tuples))):
            rows = [codebooks.codeword(u, rvi.index(u), msgs[u - 1]) for u in users]
            wrong = ((group != key) | (group < 0) if in_region
                     else (group >= 0) & (group != key))
            for start, ys in chunks:
                lp = np.zeros(len(ys))
                for j in range(n):
                    lp += log_p[tuple(r[j] for r in rows)][ys[:, j]]
                p_err = np.exp(lp[wrong[start:start + len(ys)]])
                total = np.add.accumulate(np.append(total, p_err))[-1]
        probabilities.append(float(total) / len(tuples))
    return probabilities
