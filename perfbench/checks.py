"""The benchmark's own validators.

Every check recomputes what it needs with a plain BFS over `X.adjacency`,
so a defect in the library's metric layer cannot hide a wrong answer.  Each
validator returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import hashlib
from collections import deque


def bfs(adj, sources) -> dict[int, int]:
    """Multi-source BFS distances over an adjacency map."""
    dist = {v: 0 for v in sources}
    queue = deque(dist)
    while queue:
        v = queue.popleft()
        d = dist[v] + 1
        for w in adj[v]:
            if w not in dist:
                dist[w] = d
                queue.append(w)
    return dist


def is_clique(adj, vs) -> bool:
    vs = list(vs)
    if not vs or len(set(vs)) != len(vs) or any(v not in adj for v in vs):
        return False
    return all(w in adj[v] for i, v in enumerate(vs) for w in vs[i + 1:])


def is_induced_cycle(adj, cycle) -> bool:
    """A cycle of length >= 4 whose only edges are consecutive pairs."""
    m = len(cycle)
    if m < 4 or len(set(cycle)) != m or any(v not in adj for v in cycle):
        return False
    for i, v in enumerate(cycle):
        for j in range(i + 1, m):
            consecutive = j == i + 1 or (i == 0 and j == m - 1)
            if (cycle[j] in adj[v]) != consecutive:
                return False
    return True


def edge_digest(adj) -> str:
    """Digest of a complex's sorted edge list."""
    h = hashlib.sha256()
    for u in sorted(adj):
        for v in sorted(adj[u]):
            if u < v:
                h.update(b"%d %d\n" % (u, v))
    return h.hexdigest()[:16]


def check_path_geodesic(adj, path, dist_from_start) -> list[str]:
    """`path` walks edges and is as short as the BFS distance of its ends."""
    if len(path) < 1 or any(v not in adj for v in path):
        return [f"path {path} leaves the complex"]
    if any(b not in adj[a] for a, b in zip(path, path[1:])):
        return [f"path {path} skips a non-edge"]
    if dist_from_start.get(path[-1]) != len(path) - 1:
        return [f"path of length {len(path) - 1} is not a geodesic"]
    return []


def check_euclidean(adj, sigma, tau, eg, ds=None, dt=None) -> list[str]:
    """Endpoints are sigma and tau, n+1 members, each delta_k a clique in
    layer k between them."""
    ds = ds if ds is not None else bfs(adj, sigma)
    dt = dt if dt is not None else bfs(adj, tau)
    n = min(ds[v] for v in tau)
    problems = []
    if tuple(eg.sigma) != tuple(sigma) or tuple(eg.tau) != tuple(tau):
        problems.append(f"endpoints {eg.sigma}, {eg.tau} != {sigma}, {tau}")
    if eg.n != n or len(eg.deltas) != n + 1:
        return problems + [f"length {eg.n} ({len(eg.deltas)} members), expected {n}"]
    if tuple(eg.deltas[0]) != tuple(sigma) or tuple(eg.deltas[n]) != tuple(tau):
        problems.append("first or last member is not an endpoint")
    for k, delta in enumerate(eg.deltas):
        if not is_clique(adj, delta):
            problems.append(f"delta_{k} = {delta} is not a simplex")
        elif any(ds[v] != k or dt[v] != n - k for v in delta):
            problems.append(f"delta_{k} = {delta} leaves layer {k}")
    return problems


def check_directed(adj, u, v, seq, du=None, dv=None) -> list[str]:
    """Directed geodesic from vertex u to vertex v: member k is a simplex on
    the sphere of radius n-k around v, consecutive members span a simplex."""
    du = du if du is not None else bfs(adj, (u,))
    dv = dv if dv is not None else bfs(adj, (v,))
    n = du[v]
    if len(seq) != n + 1 or tuple(seq[0]) != (u,) or tuple(seq[-1]) != (v,):
        return [f"directed geodesic {seq} does not run from {u} to {v} in {n} steps"]
    problems = []
    for k, member in enumerate(seq):
        if not is_clique(adj, member) or any(dv[x] != n - k for x in member):
            problems.append(f"member {k} = {member} is not a simplex on S_{n - k}")
    for k in range(n):
        if not is_clique(adj, set(seq[k]) | set(seq[k + 1])):
            problems.append(f"members {k}, {k + 1} do not span a simplex")
    return problems


def check_good(adj, v, w, good, bound) -> list[str]:
    """A geodesic from v to w whose complete certificate stays <= bound."""
    path = good.path
    if not path or path[0] != v or path[-1] != w:
        return [f"good geodesic {path} does not join {v} and {w}"]
    problems = check_path_geodesic(adj, path, bfs(adj, (v,)))
    n = len(path) - 1
    expected = sum(j - i + 1 for i in range(n) for j in range(i + 1, n + 1))
    if len(good.certificate) != expected:
        problems.append(f"certificate has {len(good.certificate)} entries, expected {expected}")
    if good.max_certificate > bound:
        problems.append(f"certificate {good.max_certificate} exceeds {bound}")
    return problems


def check_atlas(adj, O, N, atlas, bound) -> list[str]:
    """Every ray is a good length-N geodesic from O, the classes partition
    the rays, and the representative matrix is symmetric with zero diagonal."""
    problems = []
    if atlas.basepoint != O or atlas.N != N:
        problems.append(f"atlas for ({atlas.basepoint}, {atlas.N}), expected ({O}, {N})")
    dO = bfs(adj, (O,))
    for idx, ray in enumerate(atlas.rays):
        if len(ray.path) != N + 1 or ray.path[0] != O:
            problems.append(f"ray {idx} is not a length-{N} path from {O}")
        else:
            problems += check_path_geodesic(adj, ray.path, dO)
        if ray.max_certificate > bound:
            problems.append(f"ray {idx} certificate {ray.max_certificate} exceeds {bound}")
    members = sorted(i for cls in atlas.classes for i in cls)
    if members != list(range(len(atlas.rays))) or any(not cls for cls in atlas.classes):
        problems.append("classes do not partition the rays")
    m = atlas.rep_distance_matrix
    if len(m) != len(atlas.classes) or any(len(row) != len(m) for row in m):
        problems.append("representative matrix has the wrong shape")
    elif any(m[i][i] != 0 for i in range(len(m))) or any(
            m[i][j] != m[j][i] for i in range(len(m)) for j in range(i)):
        problems.append("representative matrix is not symmetric with zero diagonal")
    return problems
