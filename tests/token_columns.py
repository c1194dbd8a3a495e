"""Token streams built from word lists, for tests that need streams ``tokenize`` cannot give."""

from array import array

from arcindex.ingest import Tokens, _code_type


def tokens_from_words(words, capitalized, sentence_start) -> Tokens:
    """Tokens of ``words``, coded against their distinct words in first-use order.

    ``capitalized`` and ``sentence_start`` hold one truth value per word.
    """
    index = {}
    codes = [index.setdefault(word, len(index)) for word in words]
    return Tokens(list(index), array(_code_type(len(index)), codes), bytes(capitalized),
                  bytes(sentence_start))
