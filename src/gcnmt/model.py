"""Model container: encoder stack + decoder, parameter naming, checkpoints."""

from __future__ import annotations

from dataclasses import dataclass

from .config import ExperimentConfig
from .decoder import DecoderParams, build_decoder
from .encoders import EncoderStack, build_encoder
from .tensor import load_checkpoint, save_checkpoint


@dataclass
class Model:
    config: ExperimentConfig
    encoder: EncoderStack
    decoder: DecoderParams

    def parameters(self) -> dict:
        out = self.encoder.parameters()
        out.update(self.decoder.named("decoder"))
        return out


def build_model(cfg: ExperimentConfig, src_vocab_size: int, tgt_vocab_size: int,
                label_vocabs: dict, rng) -> Model:
    encoder = build_encoder(cfg, src_vocab_size, label_vocabs, rng)
    decoder = build_decoder(
        vocab_size=tgt_vocab_size,
        emb_size=cfg.emb_size,
        dec_hidden=cfg.hidden_size,
        enc_width=cfg.enc_width,
        attn_size=cfg.attn_size,
        rng=rng,
    )
    return Model(config=cfg, encoder=encoder, decoder=decoder)


def save_model(path, model: Model) -> None:
    save_checkpoint(path, model.parameters())


def load_model_params(path, model: Model) -> None:
    """Load checkpointed values into an already-built model in place.

    Each parameter's ``.data`` is rebound to its stored array as that array
    is read, one at a time, so no second copy of the model is held; a
    missing or extra name raises before any parameter changes."""
    load_checkpoint(path, model.parameters())
