"""Filter designs and detector thresholds shared by the workloads and probes."""

# (kappa, p, model_order kx, outputs kt); delay q is the variance optimum.
BASE = (2, 0.9, 2, 2)
WIDE = (6, 0.8, 4, 3)          # a 10-stage cascade
FAST = (0, 0.8, 2, 2)          # change-detector pair: the slow filter's delay
SLOW = (3, 0.8, 2, 1)          # is pinned to the fast filter's optimum

EDGE_THRESHOLD = 3.0
PEAK_THRESHOLD = 3.0
CHANGE_THRESHOLD = 3.0

# Design sweep: the designs the seed commit accepts on kappa x p x kx 1-5,
# stored as the largest accepted kx per (kappa, p); kt = min(kx, 3), q auto.
SWEEP_MAX_KX = {
    (0, 0.8): 5, (0, 0.9): 4, (0, 0.95): 4, (0, 0.98): 3, (0, 0.99): 3,
    (1, 0.8): 4, (1, 0.9): 4, (1, 0.95): 3, (1, 0.98): 3, (1, 0.99): 3,
    (2, 0.8): 4, (2, 0.9): 4, (2, 0.95): 3, (2, 0.98): 3, (2, 0.99): 3,
    (4, 0.8): 4, (4, 0.9): 3, (4, 0.95): 3, (4, 0.98): 3, (4, 0.99): 2,
    (6, 0.8): 4, (6, 0.9): 3, (6, 0.95): 3, (6, 0.98): 2, (6, 0.99): 2,
    (8, 0.8): 3, (8, 0.9): 3, (8, 0.95): 3, (8, 0.98): 2, (8, 0.99): 2,
}
SWEEP = [
    (kappa, p, kx, min(kx, 3))
    for (kappa, p), top in SWEEP_MAX_KX.items()
    for kx in range(1, top + 1)
]

SWEEP_GROUP = 10   # neighbours per cost group of the sweep order


def sweep_order(rng):
    """Seeded order of SWEEP in rounds that each span the cost range.

    Designs are ranked by cascade length and decay, then cut into groups of
    SWEEP_GROUP neighbours.  Each round takes one unused design from every group,
    in shuffled order, so a run that stops after a few rounds has measured
    about the same mix of cheap and costly designs whatever the seed.
    """
    ranked = sorted(range(len(SWEEP)), key=lambda i: (SWEEP[i][0] + SWEEP[i][2], SWEEP[i][1]))
    groups = [rng.permutation(ranked[j:j + SWEEP_GROUP]).tolist()
              for j in range(0, len(ranked), SWEEP_GROUP)]
    order = []
    for r in range(SWEEP_GROUP):
        order += rng.permutation([g[r] for g in groups if r < len(g)]).tolist()
    return order


# ROADMAP conditioning grid for design.accepted_frac (175 designs).
ROADMAP_GRID = [
    (kappa, p, kx)
    for kappa in (0, 1, 2, 4, 8)
    for p in (0.8, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999)
    for kx in range(1, 6)
]

# Designs each in-process workload builds before its first operation.
WORKLOAD_DESIGNS = {
    "stream-sample": ("BASE", "FAST", "SLOW"),
    "stream-block": ("WIDE", "BASE", "FAST", "SLOW"),
    "design-sweep": (),
}


def build(er, design, q=None):
    """Realization of a (kappa, p, kx, kt) tuple through the package module er."""
    kappa, p, kx, kt = design
    return er.build_realization(er.DesignSpec(
        weight=er.WeightSpec(kappa=kappa, p=p), model_order=kx, n_outputs=kt, delay=q,
    ))


def build_named(er, names):
    """Realizations by name; SLOW takes FAST's optimal delay."""
    out = {}
    for name in names:
        if name == "SLOW":
            fast = out.get("FAST") or build(er, FAST)
            out[name] = build(er, SLOW, fast.spec.delay)
        else:
            out[name] = build(er, globals()[name])
    return out
