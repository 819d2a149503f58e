"""Reference beam search: one ``decoder_step`` per live hypothesis and a
Python sort over every (hypothesis, token) candidate.

This is the original per-hypothesis implementation of
``gcnmt.decoder.beam_decode``, kept verbatim as the oracle that the
batched implementation must match in tokens, and in scores and states
within 1e-9.
"""

from gcnmt.corpus import BOS, EOS
from gcnmt.decoder import Hypothesis, decoder_step, init_state
from gcnmt.tensor import log_softmax, no_grad


def reference_beam_decode(enc, params, beam: int, max_len: int) -> Hypothesis:
    """Length-unnormalized beam search over one sentence."""
    if beam < 1:
        raise ValueError("beam must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    with no_grad():
        live = [Hypothesis(tokens=[], score=0.0, state=init_state(enc, params))]
        completed = []
        for _ in range(max_len):
            candidates = []
            for hyp in live:
                prev = hyp.tokens[-1] if hyp.tokens else BOS
                s_t, logits = decoder_step(prev, hyp.state, enc, params)
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
