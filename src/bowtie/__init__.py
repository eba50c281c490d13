"""BowTie: a small feedforward network for binary sentiment classification.

Submodules: corpus (ingestion), encode (sparse encodings), net (forward,
backprop), optim (sgd/rmsprop/adam/nadam), train (loop, metrics,
checkpoints), transfer (cross-vocabulary evaluation), cli (command line).
"""

__version__ = "0.1.0"
