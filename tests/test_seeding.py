"""One-pass seeding against numpy's own SeedSequence and default_rng."""

import numpy as np

from nearlink.seeding import generators, seed_words

# Word boundaries of the entropy, both ends of uint64, and seeds with more
# words than SeedSequence's pool of four.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**128, 2**128 + 1, 2**200]


def test_words_and_generators_are_numpys():
    # A numpy whose SeedSequence hashes differently fails here rather than
    # moving every drawn placement.
    children = np.random.SeedSequence(4).generate_state(2000, np.uint64)
    seeds = EDGE_SEEDS + [int(c) for c in children]
    words = seed_words(seeds)
    assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
    for seed, row, gen in zip(seeds, words, generators(seeds)):
        want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        np.testing.assert_array_equal(row, want, err_msg=str(seed))
        assert gen.bit_generator.state == np.random.default_rng(seed).bit_generator.state
    # numpy integers are taken as their value, as SeedSequence takes them.
    np.testing.assert_array_equal(seed_words(children[:5]), words[10:15])
