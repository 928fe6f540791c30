"""Text pipeline: reference-parity tokenizer, Porter stemmer, stopwords."""

from .tokenizer import Tokenizer, tokenize_text
from .porter import stem
from .stopwords import load_stopwords

__all__ = ["Tokenizer", "tokenize_text", "stem", "load_stopwords"]
