import subprocess
import sys
import unicodedata

import pytest

import gen

TEXT_WORKLOADS = ("filter", "score", "tokenize")


@pytest.mark.parametrize("workload", TEXT_WORKLOADS + ("gradcheck",))
def test_same_seed_gives_byte_identical_inputs(workload):
    a, b = gen.generate(workload, 7, gen_root()), gen.generate(workload, 7, gen_root())
    assert [(s.name, s.text, s.truth) for s in a.shards] == [(s.name, s.text, s.truth) for s in b.shards]
    assert a.properties == b.properties


@pytest.mark.parametrize("workload", TEXT_WORKLOADS)
def test_other_seed_gives_other_inputs_with_matching_properties(workload):
    a, b = gen.generate(workload, 7, gen_root()), gen.generate(workload, 8, gen_root())
    assert [s.text for s in a.shards] != [s.text for s in b.shards]
    pa, pb = a.properties, b.properties
    assert pa["items"] == pb["items"]
    assert pb["mean_words"] == pytest.approx(pa["mean_words"], rel=0.05)
    for key in ("repeated_word_share", "foreign_share", "lax_share", "nfd_share"):
        assert pb[key] == pytest.approx(pa[key], abs=0.03), key


def test_gradcheck_seed_orders_a_fixed_config_set():
    a, b = gen.generate("gradcheck", 7), gen.generate("gradcheck", 8)
    configs = lambda inputs: [s.truth[0] for s in inputs.shards]  # noqa: E731
    assert sorted(configs(a)) == list(range(gen.GRADCHECK_CONFIGS)) == sorted(configs(b))
    assert configs(a) != configs(b)


def test_generator_never_imports_the_program():
    code = ("import sys, gen\n"
            "for w in ('filter', 'score', 'tokenize', 'gradcheck'): gen.generate(w, 1, gen.Path(sys.argv[1]))\n"
            "assert not [m for m in sys.modules if m.startswith('vietphon')]\n")
    subprocess.run([sys.executable, "-c", code, str(gen_root())], check=True,
                   cwd=gen_root() / "perfbench", env={"PYTHONPATH": ""})


def test_score_hypotheses_use_lexicon_words_only():
    lexicon = set(gen.load_words(gen_root()))
    inputs = gen.generate("score", 3, gen_root())
    for shard in inputs.shards:
        for pair in shard.truth:
            words = unicodedata.normalize("NFC", pair["hyp"]).split()
            assert set(words) <= lexicon
            assert set(pair["ref"].split()) <= lexicon


def test_tone_edits_are_string_edits():
    assert gen.tone_mark("bát") == "́" and gen.tone_mark("ba") is None
    assert gen.swap_tone("bát", "̣") == "bạt"
    assert gen.swap_tone("hoàng", "") == "hoang"
    assert gen.has_stop_final("sách") and not gen.has_stop_final("sanh")


def gen_root():
    return gen.Path(__file__).resolve().parents[2]
