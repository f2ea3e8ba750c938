"""Two-agent Lewis signaling games over cell feature vectors, trained
end-to-end through a Gumbel-softmax discrete channel."""

__version__ = "0.1.0"

from .agents import (GameConfig, Mode, ReceiverParams, SenderParams, Variant,
                     init_params, receiver_forward, sender_forward)
from .analysis import (ContingencyTable, LanguageReport, build_report,
                       contingency, identification_accuracy, majority_symbols,
                       mutual_information_bits, symbols_used_fraction)
from .autodiff import Tape, Tensor, backward, gumbel_softmax
from .data import (DataConfig, Dataset, SyntheticSpec, generate_synthetic,
                   load_table, save_table, standardize, stratified_split)
from .game import Episode, Round, RoundOutcome, play_round, sample_episode
from .training import (Adam, TrainConfig, evaluate, load_checkpoint,
                       save_checkpoint, train)
