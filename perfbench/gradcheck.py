"""A few cases of the acceptance gradient check, run once per benchmark run.

The cases come from the same generator as the full 100-case acceptance test
(seed 2024, drawn in the same order), and the analytic gradients of
``sequence_loss`` must match central finite differences under the same
norm-wise tolerance.
"""

from __future__ import annotations

import numpy as np

SEED = 2024
STEP = 1e-6
RTOL = 1e-5


def gradients_close(analytic, numeric, rtol=RTOL) -> bool:
    scale = max(1.0, np.linalg.norm(analytic), np.linalg.norm(numeric))
    return bool(np.linalg.norm(analytic - numeric) <= rtol * scale)


def check(curvo, cases: int) -> list[str]:
    """Run the first ``cases`` cases; returns one message per mismatch."""
    ad, md, ls = curvo.autodiff, curvo.model, curvo.loss
    rng = np.random.default_rng(SEED)
    failures = []
    for case in range(cases):
        input_dim = int(rng.integers(2, 4))
        sizes = tuple(int(rng.integers(2, 6)) for _ in range(int(rng.integers(1, 3))))
        steps = int(rng.integers(2, 7))
        window = 2 if case % 2 == 0 else 3
        config = md.RegressorConfig(input_dim=input_dim, lstm_sizes=sizes)
        store = md.init_params(config, seed=int(rng.integers(2**31)))
        features = rng.normal(size=(steps, input_dim))
        gt = rng.uniform(-0.3, 0.3, size=(steps, 6))
        weights = ls.LossWeights(
            alpha=float(rng.uniform(0.1, 0.9)), delta=1.0,
            zeta=float(rng.uniform(0.5, 5.0)), window=window,
        )

        def total():
            tape = ad.Tape()
            preds, _ = md.forward_sequence(tape, features, config, store)
            return ls.sequence_loss(preds, gt, weights)

        ad.backward(total())
        analytic = {name: store.grads[name].copy() for name in store.names()}
        store.zero_grads()
        for name in store.names():
            param = store.params[name]
            numeric = np.zeros_like(param)
            for idx in np.ndindex(param.shape):
                orig = param[idx]
                param[idx] = orig + STEP
                hi = total().item()
                param[idx] = orig - STEP
                lo = total().item()
                param[idx] = orig
                numeric[idx] = (hi - lo) / (2.0 * STEP)
            if not gradients_close(analytic[name], numeric):
                failures.append(f"gradient check case {case}: {name} differs from "
                                "finite differences")
    return failures
