"""Loop-based scalar recomputation of every loss and of the span-mask scan
and its law, no numpy tensor ops.

These are deliberately naive: python floats, explicit loops, math.* only.
They exist so the tensor implementations can be checked against a fully
independent arithmetic path.
"""

import math


def dot(u, v):
    acc = 0.0
    for a, b in zip(u, v):
        acc += a * b
    return acc


def tpp_oracle(hidden, boundaries, w_start, w_end, max_seconds, normalizer):
    """hidden: list of rows; boundaries: (first, last, start_t, end_t)."""
    total = 0.0
    for first, last, s, e in boundaries:
        ps = dot(hidden[first], w_start)
        pe = dot(hidden[last], w_end)
        ds = ps - s / max_seconds
        de = pe - e / max_seconds
        total += 0.5 * (ds * ds + de * de)
    return total / normalizer


def log_softmax_pick(logits, target):
    m = max(logits)
    lse = m + math.log(sum(math.exp(z - m) for z in logits))
    return lse - logits[target]


def cross_entropy_oracle(logits_rows, targets):
    total = 0.0
    for row, t in zip(logits_rows, targets):
        total += log_softmax_pick(row, t)
    return total / len(targets)


def linear_rows(states, weight, bias):
    """states [n][d], weight [d][k], bias [k] -> [n][k], plain loops."""
    out = []
    for row in states:
        out_row = []
        for j in range(len(bias)):
            acc = bias[j]
            for i, x in enumerate(row):
                acc += x * weight[i][j]
            out_row.append(acc)
        out.append(out_row)
    return out


def crs_oracle(h0, weight, bias, label):
    logits = linear_rows([h0], weight, bias)[0]
    return log_softmax_pick(logits, label)


def cmlm_oracle(states, weight, bias, labels):
    logits = linear_rows(states, weight, bias)
    return cross_entropy_oracle(logits, labels)


def cmam_oracle(states, weight, bias, targets):
    preds = linear_rows(states, weight, bias)
    total = 0.0
    count = 0
    for p_row, t_row in zip(preds, targets):
        for p, t in zip(p_row, t_row):
            total += abs(p - t)
            count += 1
    return total / count


def adamw_oracle(theta, grad, m, v, step, lr, beta1, beta2, eps, weight_decay):
    """One decoupled-weight-decay step on a single scalar coordinate."""
    m_new = beta1 * m + (1 - beta1) * grad
    v_new = beta2 * v + (1 - beta2) * grad * grad
    m_hat = m_new / (1 - beta1 ** step)
    v_hat = v_new / (1 - beta2 ** step)
    theta_new = theta - lr * (m_hat / (math.sqrt(v_hat) + eps)
                              + weight_decay * theta)
    return theta_new, m_new, v_new


def schedule_oracle(step, total, warmup_steps, peak, kind):
    if warmup_steps > 0 and step <= warmup_steps:
        return peak * step / warmup_steps
    span = total - warmup_steps
    progress = (step - warmup_steps) / span
    if kind == "linear":
        return peak * (1.0 - progress)
    if kind == "cosine":
        return peak * 0.5 * (1.0 + math.cos(math.pi * progress))
    raise ValueError(kind)


def span_scan_oracle(triggers, n, p):
    """The span masker's scan, one index at a time: a trigger below ``p``
    starts a span of ``n`` frames (clipped at the end) and the scan resumes
    after it.  Returns (mask as a list of bools, span starts)."""
    length = len(triggers)
    mask = [False] * length
    starts = []
    i = 0
    while i < length:
        if triggers[i] < p:
            starts.append(i)
            for j in range(i, min(i + n, length)):
                mask[j] = True
            i += n
        else:
            i += 1
    return mask, starts


def mask_position_oracle(p, span_range, length):
    """The exact chance that the span scan masks each frame of a sequence
    of ``length`` frames, averaged over the span lengths of ``span_range``.

    For span length n, a_j is the chance that the scan tests index j:
    a_0 = 1, and a tested index j passes its share on to j + 1 when it
    does not fire (1 - p) and to j + n when it does (p).  Frame i is
    masked by a span that starts at some j in (i - n, i], each start
    exclusive of the others, so its chance is the sum of p * a_j there."""
    lo, hi = span_range
    rates = [0.0] * length
    for n in range(lo, hi + 1):
        tested = [0.0] * (length + n)
        tested[0] = 1.0
        for j in range(length):
            tested[j + 1] += (1 - p) * tested[j]
            tested[j + n] += p * tested[j]
        for i in range(length):
            rates[i] += sum(p * tested[j]
                            for j in range(max(0, i - n + 1), i + 1))
    return [r / (hi - lo + 1) for r in rates]
