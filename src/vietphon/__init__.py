"""Vietnamese phonemic analysis toolkit.

Syllable-level grapheme↔phoneme conversion, component token spaces,
edit-distance error metrics with a per-component phoneme split, transcript
corpus filtering, and a verified numeric reference of the three-headed
decoder output math.
"""

from .phonology import GraphemeRule, PhonemeClass, Syllable, Tone, inventory, validate
from .tokenizer import (
    MultipleToneMarks,
    ParseFailure,
    detokenize,
    parse_syllable,
    render_syllable,
    strip_tone,
    tokenize,
)
from .vocab import Vocabulary, build_vocab
from .metrics import cer, edit_distance, per_components, wer
from .corpus import filter_manifest, is_vietnamese_word

__version__ = "0.1.0"

__all__ = [
    "GraphemeRule",
    "PhonemeClass",
    "Syllable",
    "Tone",
    "inventory",
    "validate",
    "MultipleToneMarks",
    "ParseFailure",
    "strip_tone",
    "parse_syllable",
    "render_syllable",
    "tokenize",
    "detokenize",
    "Vocabulary",
    "build_vocab",
    "edit_distance",
    "cer",
    "wer",
    "per_components",
    "filter_manifest",
    "is_vietnamese_word",
    "__version__",
]
