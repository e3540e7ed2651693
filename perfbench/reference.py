"""Pinned reference values the benchmark checks outputs against.

The bundled-plant values are the paper's published figures as the
acceptance suite pins them; they are copied here so that the benchmark
stands on its own and cannot be loosened by editing the tests.
"""

MONOTONE, ODD = "monotone", "odd"

# largest stable linear gain of each bundled plant (checked to 1e-3 relative)
NYQUIST = {
    "ex1": 36.10000,
    "ex2": 7.90700,
    "ex3": 2.74550,
    "ex4": 1.23987,
    "ex5": 0.51373,
    "ex6": 37.36307,
}
NYQUIST_RTOL = 1e-3

# best single-frequency bound and its witness (alpha, beta) at beta_max 50
# (checked to 1e-4 absolute, witness exactly)
SINGLE_FREQ = {
    ("ex1", MONOTONE): (13.028374, (2, 7)),
    ("ex1", ODD): (13.575410, (1, 3)),
    ("ex2", MONOTONE): (3.824040, (1, 2)),
    ("ex2", ODD): (3.824040, (1, 2)),
    ("ex3", MONOTONE): (0.802745, (2, 5)),
    ("ex3", ODD): (1.105649, (1, 2)),
    ("ex4", MONOTONE): (0.846657, (2, 3)),
    ("ex4", ODD): (0.987671, (1, 2)),
    ("ex5", MONOTONE): (0.374491, (1, 3)),
    ("ex5", ODD): (0.374491, (1, 3)),
    ("ex6", MONOTONE): (13.262035, (2, 3)),
    ("ex6", ODD): (22.686907, (1, 2)),
}
SINGLE_FREQ_ATOL = 1e-4

# best known primal lower bound per class (checked to 2% relative)
LOWER = {
    ("ex1", MONOTONE): 13.028317,
    ("ex1", ODD): 13.511322,
    ("ex2", MONOTONE): 3.823996,
    ("ex2", ODD): 3.824034,
    ("ex3", MONOTONE): 0.802714,
    ("ex3", ODD): 1.105645,
    ("ex4", MONOTONE): 0.846650,
    ("ex4", ODD): 0.987666,
    ("ex5", MONOTONE): 0.374445,
    ("ex5", ODD): 0.374484,
    ("ex6", MONOTONE): 13.262027,
    ("ex6", ODD): 22.686904,
}
LOWER_RTOL = 0.02

# LP upper bound of ex1, odd class, at beta 160: the smallest slope with a
# certificate, bisected to 1e-6 with zflim's own `bisect_upper_bound`, so a
# regression pin rather than an independent value; it lies above the
# pinned lower bound 13.5113, as an upper bound must
LP_BOUND_EX1_ODD_160 = 13.51303
LP_BOUND_ATOL = 5e-4

CERT_RESIDUAL_MAX = 1e-9
CHAIN_SLACK = 1e-6
