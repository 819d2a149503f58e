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

    Each stored array is read straight into its parameter's existing
    ``.data``, one member at a time, so no second copy of any parameter is
    held; a missing or extra name raises before any parameter changes, and
    a shape mismatch before that parameter changes. Every failure raises
    ``ValueError`` (see ``tensor.load_checkpoint``); after one, throw the
    model away."""
    load_checkpoint(path, model.parameters())
