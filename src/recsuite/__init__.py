"""Recommender-systems engine.

Implements three research models plus simple baselines on session-style
interaction logs:

* ``apar``: personality-regularized nonnegative matrix factorization for
  explicit ratings, with trait profiles scored from review text.
* ``das``: attention network over long-term and short-term item sets with a
  mixture layer and a personalized output layer, trained with pairwise
  binary cross-entropy.
* ``can``: 1-D convolution over the long-term history, purpose-specific
  attention, and a preference encoder over the current session, trained
  with a BPR objective.

Everything is plain numpy with hand-derived gradients; training is
deterministic under a fixed seed.
"""

__version__ = "0.1.0"

# 2: APAR checkpoints store one trait-group label per user ("groups") in
# place of the n x n similarity matrix "L"
# 3: DAS, CAN and BPR configs lose five fields that no command set
# 4: CAN always has its own output table (no "tie_embeddings"), and nothing
# the file can derive is stored: no "index_hash", no "n_items" for random,
# no "by" for the mean predictors
# 5: the mean predictors store one mean per user (or item) as the float64
# array "means", in place of a JSON table of [key, mean] pairs and a global
# mean
# 6: the same members in the flat layout of `container` (magic line,
# lengths, CRC-32, JSON head, aligned members) in place of an .npz zip archive
# 7: the metadata record holds the user and item lists and is stored as one
# uint8 member of its UTF-8 JSON, in place of three fixed-width UTF-32
# numpy strings ("__meta__", "__users__", "__items__")
CHECKPOINT_FORMAT_VERSION = 7
