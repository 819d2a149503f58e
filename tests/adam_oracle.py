"""Reference Adam step: whole-array in-place operations, one tensor at a time.

This is the unblocked body of ``gcnmt.training.adam_step`` before it was
split into cache-sized blocks, kept verbatim as the oracle that the blocked
update must match bit for bit on parameters and moments.
"""

import numpy as np

from gcnmt.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS


def reference_adam_step(params: dict, state, lr: float, l2: float = 0.0) -> None:
    """Bias-corrected Adam update in place; L2 is added to the gradients."""
    for name, p in params.items():
        if p.grad is not None and not np.all(np.isfinite(p.grad)):
            raise FloatingPointError(f"adam_step: non-finite gradient for {name}")
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        g = g + l2 * p.data
        if name not in state.moments:
            state.moments[name] = (np.zeros_like(p.data), np.zeros_like(p.data))
        m, v = state.moments[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
