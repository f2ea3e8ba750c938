"""Sender and receiver networks for the signaling game.

The sender embeds its view of the candidates, runs a 1-D convolution with a
sigmoid over the embeddings laid end to end and maps the result to
vocabulary logits; a Gumbel-softmax channel turns the logits into a
(relaxed) symbol. The receiver embeds the symbol and the candidates into a
shared space and scores candidates by dot product. Each network embeds all
of its candidate rows with one linear op, and both take an optional leading
batch axis, so a minibatch of rounds is one forward pass.
"""

import enum
import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, ParameterError


class Variant(enum.Enum):
    SENDER_SEES_ALL = "sender-sees-all"
    SENDER_SEES_TARGET = "sender-sees-target"


class ConfigFields:
    """`to_dict`/`from_dict` over a config dataclass's fields, which must
    all be finite; `from_dict` requires every field and no other key."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ParameterError("%s must be finite" % f.name)

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d):
        """KeyError names the first field `d` lacks, ValueError the first
        key of `d` that is no field (say, of a since-deleted setting)."""
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError("%s has no field %r" % (cls.__name__, unknown[0]))
        return cls(**{f.name: d[f.name] for f in fields(cls)})


@dataclass
class GameConfig(ConfigFields):
    n_concepts: int = 5
    vocab_size: int = 100
    feature_dim: int = 28
    embed_dim: int = 15
    conv_filters: int = 20
    conv_width: int = 5
    temperature: float = 2.0
    variant: Variant = Variant.SENDER_SEES_ALL

    def __post_init__(self):
        if isinstance(self.variant, str):
            self.variant = Variant(self.variant)
        super().__post_init__()
        for name in ("n_concepts", "vocab_size", "feature_dim", "embed_dim",
                     "conv_filters", "conv_width"):
            if getattr(self, name) < 1:
                raise ParameterError("%s must be positive" % name)
        if self.temperature <= 0:
            raise ParameterError("temperature must be > 0")
        if self.vocab_size < self.n_concepts:
            raise ParameterError("vocab_size must be >= n_concepts")
        if self.conv_width > self.sender_seq_len():
            raise ParameterError(
                "conv_width %d exceeds sender sequence length %d"
                % (self.conv_width, self.sender_seq_len()))

    def sender_inputs(self):
        """Number of feature vectors the sender observes."""
        return self.n_concepts if self.variant is Variant.SENDER_SEES_ALL else 1

    def sender_seq_len(self):
        return self.sender_inputs() * self.embed_dim

    def conv_out_len(self):
        return self.sender_seq_len() - self.conv_width + 1

    def flattened_conv_len(self):
        return self.conv_filters * self.conv_out_len()

    def to_dict(self):
        return dict(super().to_dict(), variant=self.variant.value)


class ParamSet:
    """`named()`/`over()` over a parameter dataclass's Tensor fields; names
    are the subclass's PREFIX + field name. `over(arrays)` wraps each name's
    array (name -> array, say Adam views) in a Tensor without copying it."""

    def named(self):
        return {self.PREFIX + f.name: getattr(self, f.name)
                for f in fields(self)}

    def over(self, arrays):
        return type(self)(**{f.name: Tensor(arrays[self.PREFIX + f.name])
                             for f in fields(self)})


@dataclass
class SenderParams(ParamSet):
    PREFIX = "sender."
    embed_weight: Tensor
    embed_bias: Tensor
    conv_kernels: Tensor
    conv_bias: Tensor
    out_weight: Tensor
    out_bias: Tensor


@dataclass
class ReceiverParams(ParamSet):
    PREFIX = "receiver."
    # No image bias: it would add the same b . symbol to every candidate's
    # score, which the softmax ignores, so its gradient is always zero.
    image_embed_weight: Tensor
    symbol_embed_weight: Tensor
    symbol_embed_bias: Tensor


def named_params(sender, receiver):
    return {**sender.named(), **receiver.named()}


def _glorot(rng, shape, fan_in, fan_out):
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-a, a, size=shape), requires_grad=True)


def _zeros(shape):
    return Tensor(np.zeros(shape), requires_grad=True)


def init_params(cfg, seed):
    """Glorot-uniform weights, zero biases; deterministic given the seed."""
    rng = np.random.default_rng(seed)
    e, f, v = cfg.embed_dim, cfg.feature_dim, cfg.vocab_size
    c, w = cfg.conv_filters, cfg.conv_width
    flat = cfg.flattened_conv_len()
    sender = SenderParams(
        embed_weight=_glorot(rng, (e, f), f, e),
        embed_bias=_zeros(e),
        conv_kernels=_glorot(rng, (c, 1, w), w, c * w),
        conv_bias=_zeros(c),
        out_weight=_glorot(rng, (v, flat), flat, v),
        out_bias=_zeros(v),
    )
    receiver = ReceiverParams(
        image_embed_weight=_glorot(rng, (e, f), f, e),
        symbol_embed_weight=_glorot(rng, (e, v), v, e),
        symbol_embed_bias=_zeros(e),
    )
    return sender, receiver


def sender_forward(tape, params, cfg, inputs, temperature=None, rng=None):
    """Produce a symbol over the vocabulary from the sender's view.

    `inputs` holds K feature rows (target first) or just the target,
    depending on the game variant: an (n, F) matrix or a list of rows for
    one round, or a (B, n, F) array for a batch of B rounds. Returns
    (symbol, logits), (V,) or (B, V). With no `temperature` the symbol is
    the one-hot argmax of the logits (lowest index on ties) and no noise is
    drawn; otherwise it is a Gumbel-softmax sample at that temperature, its
    noise drawn from `rng`.
    """
    if temperature is not None and rng is None:
        raise ContractError("a temperature needs a generator: pass rng")
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim < 2 or inputs.shape[-2] != cfg.sender_inputs():
        raise ContractError(
            "sender expects %d input vectors per round for variant %s, got "
            "shape %s" % (cfg.sender_inputs(), cfg.variant.value, inputs.shape))
    lead = inputs.shape[:-2]
    embeds = ad.linear(tape, Tensor(inputs), params.embed_weight,
                       params.embed_bias)
    seq = ad.reshape(tape, embeds, lead + (1, cfg.sender_seq_len()))
    feature_maps = ad.sigmoid(
        tape, ad.conv1d(tape, seq, params.conv_kernels, params.conv_bias))
    flat = ad.reshape(tape, feature_maps, lead + (cfg.flattened_conv_len(),))
    logits = ad.linear(tape, flat, params.out_weight, params.out_bias)
    if temperature is None:
        symbol = Tensor(ad.one_hot(logits.data.argmax(axis=-1), cfg.vocab_size))
    else:
        symbol = ad.gumbel_softmax(tape, logits, temperature, rng)
    return symbol, logits


def receiver_forward(tape, params, cfg, symbol, candidates):
    """Log-probabilities over the K candidates given the symbol.

    For one round, `symbol` is (V,) and `candidates` a (K, F) matrix or a
    list of K feature rows; for a batch of B rounds, (B, V) and (B, K, F).
    """
    candidates = np.asarray(candidates, dtype=np.float64)
    if candidates.ndim < 2 or candidates.shape[-2] != cfg.n_concepts:
        raise ContractError("receiver expects %d candidates per round, got "
                            "shape %s" % (cfg.n_concepts, candidates.shape))
    sym_embed = ad.linear(tape, symbol, params.symbol_embed_weight,
                          params.symbol_embed_bias)
    embeds = ad.linear(tape, Tensor(candidates), params.image_embed_weight)
    return ad.log_softmax(tape, ad.dot(tape, embeds, sym_embed))
