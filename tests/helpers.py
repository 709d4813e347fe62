"""Independent brute-force oracles for the test suite.

Everything here works directly on element objects with plain Python
sets, bypassing the package's index tables, join memoization and numpy
BFS, so the main machinery is always checked against a second route.
"""

from itertools import product

from acgraphs.elements import identity_like


def brute_mulclose(elements):
    """Subgroup closure by pairwise-product saturation."""
    els = set(elements)
    if not els:
        raise ValueError("need at least one element")
    els.add(identity_like(next(iter(els))))
    frontier = list(els)
    while frontier:
        new = []
        for a in list(els):
            for b in frontier:
                for c in (a * b, b * a):
                    if c not in els:
                        els.add(c)
                        new.append(c)
        frontier = new
    return els


def brute_normal_closure(group_elements, seeds):
    """Closure of all conjugates of the seeds, conjugating by everything."""
    conjugates = {s.conjugate_by(g) for s in seeds for g in group_elements}
    conjugates.add(identity_like(group_elements[0]))
    return brute_mulclose(conjugates)


def brute_center(group_elements, generators):
    """Elements that commute with every generator, hence with the group."""
    return {x for x in group_elements if all(x * s == s * x for s in generators)}


def brute_generates(group_elements, seeds):
    return len(brute_mulclose(seeds)) == len(group_elements)


def brute_normally_generates(group_elements, seeds):
    return len(brute_normal_closure(group_elements, seeds)) == len(group_elements)


def brute_cycle_count(images):
    n = len(images)
    seen = [False] * n
    count = 0
    for i in range(n):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = images[j]
    return count


def ac_move_images(tup, group_elements, mode="full-ac", conjugators=None,
                   directed=False):
    """All raw move images of a tuple of elements (dedup, no self).

    Restricted AC conjugates by the conjugators and their inverses, or by
    the conjugators alone when ``directed``."""
    k = len(tup)
    out = set()
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            for y in (tup[j], tup[j].inverse()):
                left = list(tup)
                left[i] = y * tup[i]
                out.add(tuple(left))
                right = list(tup)
                right[i] = tup[i] * y
                out.add(tuple(right))
        if mode != "nielsen":
            inv = list(tup)
            inv[i] = tup[i].inverse()
            out.add(tuple(inv))
        if mode == "full-ac":
            for w in group_elements:
                conj = list(tup)
                conj[i] = tup[i].conjugate_by(w)
                out.add(tuple(conj))
        elif mode == "restricted-ac":
            ws = list(conjugators)
            if not directed:
                ws += [w.inverse() for w in conjugators]
            for w in ws:
                conj = list(tup)
                conj[i] = tup[i].conjugate_by(w)
                out.add(tuple(conj))
    out.discard(tuple(tup))
    return out


def brute_graph(group_elements, member_elements, k, vertex_pred, mode="full-ac",
                conjugators=None, directed=False):
    """Explicit vertex set and adjacency dict (out-neighbours) from raw
    moves."""
    vertices = [
        tup for tup in product(member_elements, repeat=k) if vertex_pred(tup)
    ]
    vset = set(vertices)
    adj = {
        v: {
            u
            for u in ac_move_images(v, group_elements, mode, conjugators, directed)
            if u in vset
        }
        for v in vertices
    }
    return vertices, adj


def brute_components(vertices, adj):
    unvisited = set(vertices)
    comps = []
    while unvisited:
        start = unvisited.pop()
        comp = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for u in adj[v]:
                    if u not in comp:
                        comp.add(u)
                        nxt.append(u)
            frontier = nxt
        unvisited -= comp
        comps.append(comp)
    return comps


def brute_distance(adj, u, v):
    if u == v:
        return 0
    dist = {u: 0}
    frontier = [u]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    if y == v:
                        return dist[y]
                    nxt.append(y)
        frontier = nxt
    return None


def brute_distances(adj, u):
    """Distances from u to every vertex it reaches."""
    dist = {u: 0}
    frontier = [u]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist


def brute_diameter(adj, comp):
    return max(max(brute_distances(adj, u).values()) for u in comp)
