"""Independent reference implementations the tests compare against.

Everything here is written directly from the defining formulas with plain
loops and no imports from the package under test, so a shared bug cannot
cancel out. Slow on purpose; only run at test scale.
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
