"""Seeded random DAG environments for fuzzing the graph invariants.

States have several parents and edges skip levels.  State numbers, slot
assignments and the edge list are all shuffled, so edge order, slot order,
state order and level order all differ.
"""

import numpy as np

from stablegfn.envs import DagEnv


class RandomDag(DagEnv):
    """A random source-to-sink DAG over ``size`` non-sink states."""

    def __init__(self, seed: int, size: int = 12, extra_parent_prob: float = 0.3):
        rng = np.random.default_rng(seed)
        self.seed, self.size = seed, size
        # hidden topological positions: 0 is the source; the last position
        # terminates, so every non-terminating state has a later one to reach
        terminating = rng.random(size) < 0.35
        terminating[0], terminating[-1] = False, True
        arcs = set()
        for j in range(1, size):
            earlier = np.flatnonzero(~terminating[:j])
            arcs.add((int(rng.choice(earlier)), j))
            for i in earlier:
                if rng.random() < extra_parent_prob:
                    arcs.add((int(i), j))
        for i in np.flatnonzero(~terminating):
            if not any(a == i for a, _ in arcs):
                arcs.add((int(i), int(rng.integers(i + 1, size))))

        state = np.concatenate([[0], 1 + rng.permutation(size - 1)])  # position -> state
        sink = size
        pairs = [(int(state[a]), int(state[b])) for a, b in sorted(arcs)]
        pairs += [(int(state[x]), sink) for x in np.flatnonzero(terminating)]
        out_deg = np.bincount([a for a, _ in pairs], minlength=size + 1)
        in_deg = np.bincount([b for a, b in pairs if b != sink], minlength=size + 1)
        # slots: a random subset of the widest fan, in random order
        fslots = {s: list(rng.permutation(out_deg.max())[:out_deg[s]]) for s in range(size)}
        bslots = {s: list(rng.permutation(in_deg.max())[:in_deg[s]]) for s in range(size)}
        edges = [(a, b, int(fslots[a].pop()), 0 if b == sink else int(bslots[b].pop()))
                 for a, b in pairs]
        edges = np.array(edges, dtype=np.int64)[rng.permutation(len(edges))]
        terminals = state[np.flatnonzero(terminating)]
        rewards = np.array([rng.uniform(0.1, 3.0) for _ in terminals])
        super().__init__(sink, *edges.T.copy(), terminals, rewards, np.r_[np.arange(size), -1],
                         feature_dim=size + 1)


# A test id per environment class: the config's env kind that builds it.  No
# config builds the other two: a RandomDag, and a plain DagEnv, which the tests
# build only as a reward increment on a base's arrays (one more mode).
KIND_IDS = {"RegularTree": "tree", "Hypergrid": "hypergrid", "RandomDag": "random_dag",
            "DagEnv": "one_more_mode"}


def kind_id(env) -> str:
    """The config's env kind of ``env``'s class, as a test id."""
    return KIND_IDS[type(env).__name__]


def random_dags(seeds=(0, 1, 2), size: int = 12):
    return [RandomDag(seed, size) for seed in seeds]
