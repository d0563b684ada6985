"""Independent reference implementations used to cross-check the package.

Everything here deliberately takes a different route from the production
code and builds its own matrices from the adjacency; nothing but `Graph`
is imported from the package. The quantum oracle exponentiates a
column-major vectorized Liouvillian over the graph padded with a sink
instead of propagating the n-dimensional no-jump state, the classical
oracles are a fine-step explicit Euler product over a walk matrix built
with loops and a symmetric eigendecomposition instead of a
scaling-and-squaring exponential, hit
times are brentq roots instead of a descent over a propagator ladder, the
quantum walker's long-time sink population comes from eigenprojectors of A
instead of from propagating the walk, the
filter oracles count neighbor edges from explicit edge lists with Python
loops instead of vectorized row/column sums, encoded input rows are
built graph by graph from explicitly shifted maps instead of window sums
over stacked blocks, and the full classifier's scores come from an
explicit 3x3 convolution loop over the channel maps instead of
kernel-weighted sums of precomputed, collapsed shifts, and the conv-weight
gradient is a scalar-by-scalar backward pass ending in its sum over rows and
vertices instead of one matrix product. A relabeled graph is a reindexed
adjacency matrix passed through the checked `Graph` constructor.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.linalg import expm
from scipy.optimize import brentq

from qwalk import Graph


# ====== quantum: column-major vectorized Liouvillian + expm ======


def liouvillian_expm_density(g: Graph, t: float, gamma: float = 1.0) -> np.ndarray:
    """(n+1) x (n+1) rho(t), the sink at index n, by exponentiating the
    vectorized generator (column-major vec).

    The Hamiltonian is the adjacency padded with a zero sink row and
    column; the one jump L = |sink><target| acts at rate gamma. With vec
    stacking columns, vec(A X B) = kron(B.T, A) vec(X), so
      -i[H, rho]            -> -i (kron(I, H) - kron(H.T, I))
      L rho Ldag            -> kron(conj(L), L)
      -1/2 {LdagL, rho}     -> -1/2 (kron(I, LdagL) + kron(LdagL.T, I))
    """
    n = g.n
    d = n + 1
    h = np.zeros((d, d), dtype=np.complex128)
    h[:n, :n] = g.adjacency
    eye = np.eye(d)
    jump = np.zeros((d, d))
    jump[n, g.v_target] = 1.0
    ldl = jump.T @ jump
    lv = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    lv += gamma * (
        np.kron(jump.conj(), jump) - 0.5 * (np.kron(eye, ldl) + np.kron(ldl.T, eye))
    )
    rho0 = np.zeros((d, d), dtype=np.complex128)
    rho0[g.v_init, g.v_init] = 1.0
    vec = rho0.reshape(-1, order="F")
    out = expm(lv * t) @ vec
    return out.reshape(d, d, order="F")


# ====== classical: explicit fine-step Euler ======


def loop_walk_matrix(g: Graph) -> list[list[float]]:
    """The classical jump matrix, entry by entry: column u spreads over u's
    neighbours, and the target column stays at the target."""
    a = g.adjacency
    deg = [sum(int(a[k][u]) for k in range(g.n)) for u in range(g.n)]
    return [[(1.0 if i == u else 0.0) if u == g.v_target else a[i][u] / deg[u]
             for u in range(g.n)] for i in range(g.n)]


def euler_classical_probabilities(g: Graph, t: float, h: float = 1e-5) -> np.ndarray:
    """p(t) as (I + h (T - I))^N p(0), evaluated via a matrix power for speed.

    T is `loop_walk_matrix`. This is exactly the explicit Euler iterate at
    step h = t / N; only the grouping of the multiplications differs.
    """
    p0 = np.zeros(g.n)
    p0[g.v_init] = 1.0
    if t == 0:
        return p0
    steps = max(1, round(t / h))
    generator = np.array(loop_walk_matrix(g)) - np.eye(g.n)
    step_matrix = np.eye(g.n) + (t / steps) * generator
    return np.linalg.matrix_power(step_matrix, steps) @ p0


# ====== classical: spectral propagation of the unabsorbed block ======


def spectral_target_probability(g: Graph, t: float) -> float:
    """Probability that the classical walker has reached the target by t.

    Off the target, the jump matrix is A_BB D^-1 (D the full degrees), which
    is similar to the symmetric D^-1/2 A_BB D^-1/2 = V diag(lam) V^T. So the
    unabsorbed occupations are D^1/2 V exp((lam - 1) t) V^T D^-1/2 p_B(0), and
    the target holds the rest.
    """
    a = g.adjacency.astype(np.float64)
    keep = [v for v in range(g.n) if v != g.v_target]
    root_deg = np.sqrt(a.sum(axis=0)[keep])
    lam, vec = np.linalg.eigh(a[np.ix_(keep, keep)] / np.outer(root_deg, root_deg))
    p0 = np.zeros(len(keep))
    p0[keep.index(g.v_init)] = 1.0
    p_b = root_deg * (vec @ (np.exp((lam - 1.0) * t) * (vec.T @ (p0 / root_deg))))
    return 1.0 - float(p_b.sum())


# ====== hit times: brentq roots of the oracle curves ======


def _first_crossing(curve, p_th: float, t_max: float) -> float | None:
    # Both curves are non-decreasing, so a crossing by t_max is bracketed by [0, t_max].
    if curve(t_max) <= p_th:
        return None
    # brentq's sharpest relative tolerance, and an absolute one that never binds
    eps = np.finfo(float).eps
    return brentq(lambda t: curve(t) - p_th, 0.0, t_max, xtol=np.finfo(float).tiny, rtol=4 * eps)


def oracle_hit_times(
    g: Graph, p_th: float, t_max: float, gamma: float = 1.0
) -> tuple[float | None, float | None]:
    """(classical, quantum) first times the detection curves exceed p_th.

    The classical curve is the spectral one above; the quantum curve is the
    sink entry of the vectorized-Liouvillian density matrix.
    """
    sink = g.n
    return (
        _first_crossing(lambda t: spectral_target_probability(g, t), p_th, t_max),
        _first_crossing(
            lambda t: liouvillian_expm_density(g, t, gamma)[sink, sink].real, p_th, t_max
        ),
    )


# ====== quantum: the bright-state weight that bounds the sink ======

# Eigenvalues of A closer than this are read as one degenerate eigenvalue.
# A is an integer symmetric matrix, and eigh places its eigenvalues within
# about 1e-14 of the exact ones, far inside the tolerance.
EIGENVALUE_TOLERANCE = 1e-8
# A target weight <t|P|t> below this on an eigenspace is read as zero.
TARGET_WEIGHT_TOLERANCE = 1e-10


def eta(g: Graph, gamma: float = 1.0) -> float:
    """The limit of the quantum walker's sink population.

    For each eigenvalue of A with eigenprojector P, the bright state
    P|t>/||P|t>|| is the one direction of its eigenspace that the target
    couples to; the rest of the eigenspace is dark, an eigenspace of
    H_eff = A - (i gamma/2)|t><t| with a real eigenvalue. The bright and
    dark spans are both invariant under H_eff, and for gamma > 0 the bright
    one decays fully, so the sink population rises to the start state's
    weight on the bright states, sum |<t|P|s>|^2 / <t|P|t>, and never
    exceeds it. With gamma = 0 nothing leaks and the limit is 0.
    """
    if gamma == 0:
        return 0.0
    lam, vec = np.linalg.eigh(g.adjacency.astype(np.float64))
    # eigh sorts the eigenvalues, so each degenerate group is a run
    cuts = np.flatnonzero(np.diff(lam) > EIGENVALUE_TOLERANCE) + 1
    total = 0.0
    for group in np.split(np.arange(g.n), cuts):
        projector = vec[:, group] @ vec[:, group].T
        weight = projector[g.v_target, g.v_target]
        if weight > TARGET_WEIGHT_TOLERANCE:
            total += projector[g.v_target, g.v_init] ** 2 / weight
    return float(total)


# ====== filters: explicit edge-list counting ======


def edge_list(adjacency: np.ndarray) -> list[frozenset]:
    n = adjacency.shape[0]
    return [
        frozenset((i, j))
        for i in range(n)
        for j in range(i + 1, n)
        if adjacency[i, j]
    ]


def brute_ete_from_edges(adjacency: np.ndarray) -> np.ndarray:
    """For each present edge, count the other edges sharing an endpoint."""
    n = adjacency.shape[0]
    edges = edge_list(adjacency)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if not adjacency[i, j]:
                continue
            this = frozenset((i, j))
            out[i, j] = sum(1 for e in edges if e != this and (e & this))
    return out


def brute_etv(m: np.ndarray) -> np.ndarray:
    """Plain-loop transcription of the edge-to-vertex reduction."""
    n = m.shape[0]
    out = np.zeros(n)
    for i in range(n):
        total = 0.0
        for k in range(n):
            total += m[i][k] + m[k][i]
        out[i] = total - 2.0 * m[i][i]
    return out


def brute_ete(m: np.ndarray) -> np.ndarray:
    """Plain-loop transcription of the edge-to-edge filter."""
    n = m.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            total = 0.0
            for k in range(n):
                total += m[i][k] + m[k][j]
            out[i, j] = (total - 2.0 * m[i][j]) * m[i][j]
    return out


# ====== exhaustive graph enumeration ======


def connected_graphs(n: int) -> list[Graph]:
    """Every connected labeled graph on n vertices (start 0, target 1)."""
    pairs = list(itertools.combinations(range(n), 2))
    graphs = []
    for mask in range(1 << len(pairs)):
        a = np.zeros((n, n), dtype=np.int64)
        for bit, (i, j) in enumerate(pairs):
            if mask >> bit & 1:
                a[i, j] = a[j, i] = 1
        if _connected(a):
            graphs.append(Graph(a))
    return graphs


def _connected(a: np.ndarray) -> bool:
    n = a.shape[0]
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in np.nonzero(a[u])[0]:
            v = int(v)
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


# ====== relabeling ======


def permute_free_vertices(g: Graph, perm) -> Graph:
    """g with each vertex v renamed perm[v], built by the checked `Graph`
    constructor; perm fixes the start and the target, which keep their
    indices."""
    inv = np.argsort(np.asarray(perm))
    return Graph(g.adjacency[np.ix_(inv, inv)], g.v_init, g.v_target)


# ====== encoded rows and full-variant forward pass: explicit loops ======


def _upper(m) -> np.ndarray:
    n = len(m)
    return np.array([[m[i][j] if j >= i else 0.0 for j in range(n)] for i in range(n)])


def _loop_channels(a: np.ndarray) -> list[np.ndarray]:
    """The desymmetrized channel maps: the padded adjacency, then repeated
    brute_ete passes, each rescaled to unit peak."""
    n_max = len(a)
    channels = [_upper(a)]
    current = a
    for _ in range(max(1, int(np.ceil(np.log2(n_max))))):
        current = brute_ete(current)
        peak = max(abs(v) for row in current for v in row)
        if peak > 0:
            current = current / peak
        channels.append(_upper(current))
    return channels


def _loop_vertex_features(g: Graph, a: np.ndarray) -> list[list[float]]:
    """Per padded vertex: degree, neighboring-edge total, start and target bits."""
    degree = brute_etv(_upper(a))
    spread = brute_etv(_upper(brute_ete(a)))
    return [[degree[v], spread[v], a[g.v_init][v], a[g.v_target][v]] for v in range(len(a))]


def _loop_transition_rows(g: Graph, n_max: int) -> list[float]:
    """One- and two-step walk probabilities out of the start and the target,
    zero-padded to n_max each, from `loop_walk_matrix`."""
    step = loop_walk_matrix(g)
    two = [[sum(step[i][k] * step[k][u] for k in range(g.n)) for u in range(g.n)]
           for i in range(g.n)]
    out = []
    for matrix, v in ((step, g.v_init), (step, g.v_target), (two, g.v_init), (two, g.v_target)):
        out.extend(matrix[v][u] if u < g.n else 0.0 for u in range(n_max))
    return out


def _padded(g: Graph, n_max: int) -> np.ndarray:
    if g.n > n_max:
        raise ValueError(f"graph has {g.n} vertices but the model allows {n_max}")
    a = np.zeros((n_max, n_max))
    a[: g.n, : g.n] = g.adjacency
    return a


def loop_encoded_row(model, g: Graph) -> np.ndarray:
    """The input row `encode` gives one graph, built graph by graph with loops.

    Simple variant: the bias, then per vertex its degree, neighboring-edge
    total and start/target adjacency. Full variant: brute_etv of each
    explicitly shifted, zero-padded copy of every channel map (channel,
    then row offset, then column offset), the vertex features scaled by
    (1/n_max, 1/n_max**2, 1, 1), and the transition rows.
    """
    n_max = model.n_max
    a = _padded(g, n_max)
    features = _loop_vertex_features(g, a)
    if model.variant == "simple":
        return np.array([1.0] + [x for f in features for x in f])
    row = []
    for ch in _loop_channels(a):
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                shifted = np.zeros((n_max, n_max))
                for i in range(n_max):
                    for j in range(n_max):
                        if 0 <= i + di < n_max and 0 <= j + dj < n_max:
                            shifted[i, j] = ch[i + di][j + dj]
                row.extend(brute_etv(shifted))
    scale = (1.0 / n_max, 1.0 / n_max**2, 1.0, 1.0)
    for f in features:
        row.extend(x * s for x, s in zip(f, scale))
    row.extend(_loop_transition_rows(g, n_max))
    return np.array(row)


def brute_full_scores(model, g: Graph) -> list[float]:
    """(classical, quantum) scores of the full variant, transcribed with loops.

    The channel maps come from brute_ete, each one desymmetrized, and every
    learned map is an explicit same-padded 3x3 cross-correlation of the
    channel stack collapsed by brute_etv, instead of the package's
    collapsed one-pixel shifts weighted by the kernel.
    """
    n_max = model.n_max
    a = _padded(g, n_max)
    channels = _loop_channels(a)

    kernel = model.weights["conv"]
    z = [1.0]
    for k in range(n_max):
        conv = np.zeros((n_max, n_max))
        for i in range(n_max):
            for j in range(n_max):
                total = 0.0
                for c, ch in enumerate(channels):
                    for di in (-1, 0, 1):
                        for dj in (-1, 0, 1):
                            if 0 <= i + di < n_max and 0 <= j + dj < n_max:
                                total += kernel[k, c, di + 1, dj + 1] * ch[i + di][j + dj]
                conv[i][j] = total
        z.extend(v / n_max for v in brute_etv(conv))

    for degree, spread, to_start, to_target in _loop_vertex_features(g, a):
        z.extend([degree / n_max, spread / n_max**2, to_start, to_target])
    z.extend(_loop_transition_rows(g, n_max))

    w_hidden, w_last = model.weights["hidden"], model.weights["last"]
    hidden = []
    for h in range(w_hidden.shape[1]):
        pre = sum(z[r] * w_hidden[r, h] for r in range(len(z)))
        hidden.append(max(pre, 0.0))
    hidden.append(1.0)
    return [sum(hidden[h] * w_last[h, c] for h in range(len(hidden))) for c in (0, 1)]


def loop_conv_gradient(model, rows, labels, kappas) -> np.ndarray:
    """Gradient of the full variant's batch-mean class-weighted cross entropy
    with respect to its conv weights, transcribed with loops from encoded
    rows.

    Each row runs forward and back scalar by scalar. The last stage is the
    definition conv[k, c, a, b] = sum over rows r and vertices i of
    g_conv[r, k, i] * block[r, (c, a, b), i], where g_conv is the loss
    gradient of the collapsed convolution outputs and block the row's
    collapsed shifts, summed term by term instead of as a matrix product.
    """
    kernel = model.weights["conv"]
    n_max, channels = kernel.shape[0], kernel.shape[1]
    shifts = 9 * channels
    w_hidden, w_last = model.weights["hidden"], model.weights["last"]
    width, hidden_width = w_hidden.shape
    kernel_rows = [kernel[k].reshape(-1) for k in range(n_max)]
    grad = np.zeros((n_max, shifts))
    for row, label in zip(rows, labels):
        block = [[row[q * n_max + i] for i in range(n_max)] for q in range(shifts)]
        z = [1.0]
        for k in range(n_max):
            for i in range(n_max):
                z.append(sum(kernel_rows[k][q] * block[q][i] for q in range(shifts)) / n_max)
        z.extend(row[shifts * n_max :])
        pre = [sum(z[s] * w_hidden[s, h] for s in range(width)) for h in range(hidden_width)]
        hidden = [max(p, 0.0) for p in pre] + [1.0]
        scores = [sum(hidden[h] * w_last[h, c] for h in range(hidden_width + 1)) for c in (0, 1)]
        top = max(scores)
        total = sum(np.exp(s - top) for s in scores)
        weight = kappas[label]
        g_scores = [
            weight * (np.exp(scores[c] - top) / total - (1.0 if c == label else 0.0)) / len(rows)
            for c in (0, 1)
        ]
        g_pre = [
            sum(g_scores[c] * w_last[h, c] for c in (0, 1)) if pre[h] > 0.0 else 0.0
            for h in range(hidden_width)
        ]
        for k in range(n_max):
            for i in range(n_max):
                s = 1 + k * n_max + i
                g_conv = sum(g_pre[h] * w_hidden[s, h] for h in range(hidden_width)) / n_max
                for q in range(shifts):
                    grad[k, q] += g_conv * block[q][i]
    return grad.reshape(kernel.shape)
