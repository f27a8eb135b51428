import math
import tracemalloc

import numpy as np
import pytest

from masksched.data import (
    CLS_ID,
    N_SPECIALS,
    SEP_ID,
    build_vocab,
    encode,
    encode_corpus,
    synthetic_zipf_corpus,
)
from masksched.evaluate import (
    EvalConfig,
    MinimalPair,
    eval_mlm,
    load_minimal_pairs,
    minimal_pair_accuracy,
    pll,
)
from masksched.model import ModelConfig, init_params, param_shapes

from oracles import ref_pll

CFG = ModelConfig(
    n_layers=1, n_heads=2, d_model=8, d_ff=16, vocab_size=12, max_seq_len=8, init_seed=2
)


def uniform_params(config, bias=None):
    """All-zero weights make every position's logits equal to the MLM bias."""
    params = {name: np.zeros(shape) for name, shape in param_shapes(config).items()}
    for name in params:
        if name.endswith(".scale"):
            params[name][:] = 1.0
    if bias is not None:
        params["mlm_head.b"][:] = bias
    return params


@pytest.fixture(scope="module")
def toy():
    lines = synthetic_zipf_corpus(80, n_word_types=7, seed=1, min_len=3, max_len=6)
    vocab = build_vocab(lines, max_size=12)
    dataset = encode_corpus(vocab, lines, CFG.max_seq_len)
    return vocab, dataset


class TestEvalMlm:
    def test_uniform_model_scores_log_vocab(self, toy):
        _, dataset = toy
        loss = eval_mlm(uniform_params(CFG), CFG, dataset, EvalConfig(seed=3), batch_size=8)
        assert abs(loss - math.log(CFG.vocab_size)) < 1e-9

    def test_same_checkpoint_same_loss_bitwise(self, toy):
        _, dataset = toy
        params = init_params(CFG)
        cfg = EvalConfig(masking_rate=0.15, seed=9, n_batches=4)
        l1 = eval_mlm(params, CFG, dataset, cfg, batch_size=8)
        l2 = eval_mlm(params, CFG, dataset, cfg, batch_size=8)
        assert l1 == l2

    def test_different_checkpoints_see_identical_masks(self, toy):
        _, dataset = toy
        cfg = EvalConfig(masking_rate=0.3, seed=4, n_batches=3)
        _, digest1 = eval_mlm(
            init_params(CFG), CFG, dataset, cfg, batch_size=8, return_mask_digest=True
        )
        other = ModelConfig(**{**CFG.__dict__, "init_seed": 99})
        _, digest2 = eval_mlm(
            init_params(other), CFG, dataset, cfg, batch_size=8, return_mask_digest=True
        )
        assert digest1 == digest2

    def test_pinned_loss_and_masks(self, toy):
        # The mask digest depends on the seeded generators alone; the loss
        # may move in the last bits with another BLAS summation order.
        _, dataset = toy
        cfg = EvalConfig(masking_rate=0.3, seed=4, n_batches=3)
        loss, digest = eval_mlm(
            init_params(CFG), CFG, dataset, cfg, batch_size=8, return_mask_digest=True
        )
        assert digest == "42eda49ab712299a11e5616b340b8bdb354b99e7ea4617ddd0277b5550ad0cc0"
        assert abs(loss - 2.479871579634812) <= 1e-12 * 2.479871579634812

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            eval_mlm(uniform_params(CFG), CFG, [], EvalConfig())

    def test_zero_batch_size_rejected(self, toy):
        _, dataset = toy
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            eval_mlm(uniform_params(CFG), CFG, dataset, EvalConfig(), batch_size=0)

    def test_bad_rate_rejected(self, toy):
        _, dataset = toy
        with pytest.raises(ValueError, match="out of"):
            eval_mlm(uniform_params(CFG), CFG, dataset, EvalConfig(masking_rate=1.5))


class TestPll:
    def test_uniform_model_minus_length_log_vocab(self, toy):
        vocab, _ = toy
        ids = encode(vocab, "w000 w001 w002", CFG.max_seq_len)
        score = pll(uniform_params(CFG), CFG, ids)
        assert abs(score - (-3 * math.log(CFG.vocab_size))) < 1e-9

    def test_single_token_sentence(self, toy):
        vocab, _ = toy
        ids = encode(vocab, "w000", CFG.max_seq_len)
        score = pll(uniform_params(CFG), CFG, ids)
        assert abs(score - (-math.log(CFG.vocab_size))) < 1e-9

    def test_matches_bruteforce_oracle(self, toy):
        vocab, _ = toy
        from masksched.data import MASK_ID, N_SPECIALS

        params = init_params(CFG)
        ids = encode(vocab, "w001 w000 w002", CFG.max_seq_len)
        ours = pll(params, CFG, ids)
        ref = ref_pll(params, CFG, ids, MASK_ID, N_SPECIALS)
        assert abs(ours - ref) < 1e-10

    def test_score_is_nonpositive(self, toy):
        vocab, _ = toy
        params = init_params(CFG)
        ids = encode(vocab, "w000 w001", CFG.max_seq_len)
        assert pll(params, CFG, ids) <= 0.0

    def test_no_scoreable_tokens_rejected(self, toy):
        vocab, _ = toy
        with pytest.raises(ValueError, match="scoreable"):
            pll(uniform_params(CFG), CFG, encode(vocab, "", CFG.max_seq_len))


def test_pll_memory_stays_below_one_dense_logits_tensor():
    # 38 scored positions of a 40-token sentence against a 2000-word vocab:
    # dense (P, L, V) logits would take 23 MiB
    length, vocab_size = 40, 2000
    ids = np.random.default_rng(0).integers(N_SPECIALS, vocab_size, size=length)
    ids[0], ids[-1] = CLS_ID, SEP_ID
    dense_bytes = (length - 2) * length * vocab_size * 8
    peaks = []
    # the last layer runs on the scored rows alone, so depth is compared
    # from two layers up
    for n_layers in (2, 4):
        config = ModelConfig(
            n_layers=n_layers, n_heads=2, d_model=16, d_ff=32,
            vocab_size=vocab_size, max_seq_len=length, init_seed=0,
        )
        params = init_params(config)
        tracemalloc.start()
        try:
            pll(params, config, ids)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < dense_bytes, peaks
    # forward-only scoring keeps no per-layer activations
    assert peaks[1] < 1.1 * peaks[0], peaks


def test_forward_only_memory_does_not_grow_with_depth():
    # each layer's temporaries are freed before the next layer runs, so the
    # scoring peak is one layer's, however deep the encoder; the last layer
    # runs on the scored rows alone, so depth is compared from two layers up
    length, vocab_size = 40, 2000
    ids = np.random.default_rng(0).integers(N_SPECIALS, vocab_size, size=length)
    ids[0], ids[-1] = CLS_ID, SEP_ID
    peaks = []
    for n_layers in (2, 4):
        config = ModelConfig(
            n_layers=n_layers, n_heads=2, d_model=16, d_ff=32,
            vocab_size=vocab_size, max_seq_len=length, init_seed=0,
        )
        params = init_params(config)
        tracemalloc.start()
        try:
            pll(params, config, ids)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.01 * peaks[0], peaks


class TestMinimalPairs:
    def make_pairs(self):
        return [
            MinimalPair("1", "agreement", "w000 w001", "w000 w006"),
            MinimalPair("2", "agreement", "w001 w000", "w006 w006"),
            MinimalPair("3", "ordering", "w000", "w006"),
        ]

    def biased_params(self, vocab):
        # bias strongly toward the tokens used in "good" sentences
        bias = np.full(CFG.vocab_size, -2.0)
        for tok in ("w000", "w001"):
            bias[vocab.lookup(tok)] = 4.0
        return uniform_params(CFG, bias=bias)

    def test_bias_separated_pairs_all_correct(self, toy):
        vocab, _ = toy
        report = minimal_pair_accuracy(self.biased_params(vocab), CFG, vocab, self.make_pairs())
        assert report["super_tasks"] == {"agreement": 1.0, "ordering": 1.0}
        assert report["overall"] == 1.0

    def test_tie_counts_as_incorrect(self, toy):
        vocab, _ = toy
        pairs = [MinimalPair("1", "t", "w000 w001", "w001 w000")]
        # uniform model scores both sentences identically -> tie -> wrong
        report = minimal_pair_accuracy(uniform_params(CFG), CFG, vocab, pairs)
        assert report["super_tasks"]["t"] == 0.0

    def test_overall_is_unweighted_mean_over_super_tasks(self, toy):
        vocab, _ = toy
        pairs = self.make_pairs() + [
            MinimalPair("4", "ordering", "w006", "w000"),  # reversed -> wrong
        ]
        report = minimal_pair_accuracy(self.biased_params(vocab), CFG, vocab, pairs)
        assert report["super_tasks"]["agreement"] == 1.0
        assert report["super_tasks"]["ordering"] == 0.5
        # 3 of 4 pairs correct, but the overall averages the two super-tasks
        assert report["overall"] == 0.75

    def test_tsv_round_trip(self, toy, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text(
            "pair_id\tsuper_task\tsentence_good\tsentence_bad\n"
            "1\tagreement\tw000 w001\tw000 w006\n"
            "2\tordering\tw000\tw006\n",
            encoding="utf-8",
        )
        pairs = load_minimal_pairs(str(path))
        assert len(pairs) == 2
        assert pairs[0].super_task == "agreement"
        assert pairs[1].sentence_bad == "w006"

    def test_tsv_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\n1\t2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="columns"):
            load_minimal_pairs(str(path))

    def test_empty_pair_list_rejected(self, toy):
        vocab, _ = toy
        with pytest.raises(ValueError, match="no minimal pairs"):
            minimal_pair_accuracy(uniform_params(CFG), CFG, vocab, [])
