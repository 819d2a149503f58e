"""Reference beam search: one step per live hypothesis and a Python sort
over every (hypothesis, token) candidate.

This is the original per-hypothesis implementation of
``gcnmt.decoder.beam_decode``, kept as the oracle that the batched
implementation must match in tokens, and in scores and states within
1e-9. Each step is the direct formula, independent of ``decoder_step``:
``layer_oracle.reference_recurrence_step`` (the embedding row, attention
and the GRU update) and the projection ``[s_t; context; emb] @ w_out +
b_out`` of its features.
"""

from gcnmt.corpus import BOS, EOS
from gcnmt.decoder import Hypothesis, attention_keys, init_state
from gcnmt.tensor import log_softmax, matmul, no_grad
from layer_oracle import reference_recurrence_step


def reference_step(y_prev_id, s_prev, enc, params, keys):
    """(new state, logits) of one step by the direct formula."""
    s_t, features = reference_recurrence_step(y_prev_id, s_prev, enc, params, keys)
    return s_t, matmul(features, params.w_out) + params.b_out


def reference_beam_decode(enc, params, beam: int, max_len: int) -> Hypothesis:
    """Length-unnormalized beam search over one sentence."""
    if beam < 1:
        raise ValueError("beam must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    with no_grad():
        keys = attention_keys(enc, params.attn)
        live = [Hypothesis(tokens=[], score=0.0, state=init_state(enc, params))]
        completed = []
        for _ in range(max_len):
            candidates = []
            for hyp in live:
                prev = hyp.tokens[-1] if hyp.tokens else BOS
                s_t, logits = reference_step(prev, hyp.state, enc, params, keys)
                logprobs = log_softmax(logits).data
                for tok in range(logprobs.shape[-1]):
                    candidates.append(
                        (hyp.score + float(logprobs[tok]), tok, hyp, s_t))
            candidates.sort(key=lambda c: (-c[0], c[1]))
            live = []
            for score, tok, hyp, s_t in candidates[:beam]:
                new = Hypothesis(tokens=hyp.tokens + [tok], score=score, state=s_t)
                if tok == EOS:
                    completed.append(new)
                else:
                    live.append(new)
            if not live:
                break
        pool = completed if completed else live
        return max(pool, key=lambda h: h.score)
