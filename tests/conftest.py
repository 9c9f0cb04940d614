import itertools
import pathlib
import unicodedata

import pytest
from hypothesis import strategies as st

from vietphon import head
from vietphon.lexicon import load_lexicon
from vietphon.phonology import FINAL_IPAS, GLIDE_IPAS, INITIAL_IPAS, TONE_BY_MARK, VOWEL_IPAS, Syllable, Tone
from vietphon.tokenizer import render_syllable

DATA_DIR = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def lexicon():
    return load_lexicon()


@pytest.fixture
def corrupt_gradient(monkeypatch):
    """A negative control for grad_check: corrupt(name, index, delta) makes
    head.sequence_grads add delta to flat entry index of the exact gradient of
    array name.  Each call replaces the last; the exact function returns after the test.
    """
    exact = head.sequence_grads

    def corrupt(name: str, index: int, delta: float) -> None:
        def corrupted(*args, **kwargs):
            total, per_head, grads = exact(*args, **kwargs)
            grads[name].reshape(-1)[index] += delta
            return total, per_head, grads

        monkeypatch.setattr(head, "sequence_grads", corrupted)

    return corrupt


@pytest.fixture(scope="session")
def golden_rows():
    rows = []
    for line in (DATA_DIR / "golden_words.tsv").read_text("utf-8").splitlines():
        if line.startswith("#") or not line.strip():
            continue
        fields = [None if f == "-" else f for f in line.split("\t")]
        rows.append(fields)
    return rows


@pytest.fixture(scope="session")
def component_syllables():
    """The Syllables of all 45,540 component tuples, closed set and lax forms alike."""
    return [
        Syllable(vowel=v, initial=i, glide=g, final=f, tone=t)
        for i, g, v, f, t in itertools.product(
            (None, *sorted(INITIAL_IPAS)), (None, *sorted(GLIDE_IPAS)), sorted(VOWEL_IPAS),
            (None, *sorted(FINAL_IPAS)), Tone)
    ]


@pytest.fixture(scope="session")
def component_forms(component_syllables):
    """The written forms of all 45,540 component tuples, lax forms included."""
    return sorted({render_syllable(s) for s in component_syllables})


@pytest.fixture(scope="session")
def candidate_words(component_forms):
    """Strategy for words on both sides of the closed set.

    The component forms, their NFD and uppercase variants, and random letter
    strings that may carry stray tone marks.
    """
    letters = "abcdeghiklmnopqrstuvxyăâđêôơưfjwzBQ3" + "".join(TONE_BY_MARK)
    rendered = st.sampled_from(component_forms)
    return st.one_of(
        rendered,
        rendered.map(lambda w: unicodedata.normalize("NFD", w)),
        rendered.map(str.upper),
        st.text(alphabet=letters, min_size=1, max_size=7),
    )
