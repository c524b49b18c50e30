"""Vocabulary loading, decoding, tokenization."""

from __future__ import annotations

import json

import pytest

from boundedgen.vocab import Vocabulary, VocabularyError, load_vocabulary, save_vocabulary


def write_vocab(path, payload) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestConstruction:
    def test_eos_appended(self):
        v = Vocabulary([b"x", b"(", b")", b"(x"], eos=4)
        assert v.size == 5
        assert v.tokens[v.eos] == b""

    def test_byte_fallback_vocab(self):
        tokens = [bytes([b]) for b in range(256)]
        v = Vocabulary(tokens, eos=256)
        assert v.size == 257

    def test_empty_vocab_rejected(self):
        with pytest.raises(VocabularyError):
            Vocabulary([], eos=0)
        with pytest.raises(VocabularyError):
            Vocabulary([b""], eos=1)  # appended eos leaves an empty non-eos token

    def test_empty_non_eos_rejected(self):
        with pytest.raises(VocabularyError):
            Vocabulary([b"a", b"", b"b"], eos=3)

    def test_duplicates_flagged_not_fatal(self):
        v = Vocabulary([b"a", b"b", b"a"], eos=3)
        assert v.duplicate_count == 1


class TestDecode:
    def test_decode_examples(self, paren_vocab):
        v = paren_vocab
        assert v.decode([1, 0, 2]) == b"(x)"
        assert v.decode([v.eos]) == b""
        assert v.decode([3, 2]) == b"(x)"

    def test_decode_unknown_id(self, paren_vocab):
        with pytest.raises(VocabularyError):
            paren_vocab.decode([99])

    def test_decode_is_homomorphic(self, paren_vocab):
        import itertools

        v = paren_vocab
        ids = range(v.size)
        for u in itertools.product(ids, repeat=2):
            for w in itertools.product(ids, repeat=1):
                assert v.decode(list(u) + list(w)) == v.decode(u) + v.decode(w)


class TestTokenize:
    def test_longest_match(self):
        v = Vocabulary([b"a", b"ab", b"b"], eos=3)
        assert v.tokenize(b"ab") == [1]
        assert v.tokenize(b"aab") == [0, 1]

    def test_untokenizable_byte(self):
        v = Vocabulary([b"a"], eos=1)
        with pytest.raises(VocabularyError) as err:
            v.tokenize(b"az")
        assert "0x7a" in str(err.value)

    def test_duplicate_resolves_to_lowest_id(self):
        v = Vocabulary([b"a", b"a"], eos=2)
        assert v.tokenize(b"aa") == [0, 0]


class TestFileFormat:
    def test_load_basic(self, tmp_path):
        path = write_vocab(tmp_path / "v.json", {"tokens": ["x", "(", ")", "(x"], "eos": 4})
        v = load_vocabulary(path)
        assert v.size == 5
        assert v.tokens[:4] == (b"x", b"(", b")", b"(x")
        assert v.source_hash

    def test_missing_eos(self, tmp_path):
        path = write_vocab(tmp_path / "v.json", {"tokens": ["x"]})
        with pytest.raises(VocabularyError) as err:
            load_vocabulary(path)
        assert "eos" in str(err.value)

    @pytest.mark.parametrize("eos", [True, False, -1, 1.0, "1"])
    def test_eos_must_be_a_non_negative_integer(self, tmp_path, eos):
        # True == 1 == len(tokens) would otherwise append an empty eos token.
        path = write_vocab(tmp_path / "v.json", {"tokens": ["a"], "eos": eos})
        with pytest.raises(VocabularyError, match="eos"):
            load_vocabulary(path)

    def test_byte_escapes(self, tmp_path):
        path = write_vocab(
            tmp_path / "v.json", {"tokens": ["\\xff\\x00", "a\\\\b"], "eos": 2}
        )
        v = load_vocabulary(path)
        assert v.tokens[0] == b"\xff\x00"
        assert v.tokens[1] == b"a\\b"

    def test_bad_escape(self, tmp_path):
        path = write_vocab(tmp_path / "v.json", {"tokens": ["\\q"], "eos": 1})
        with pytest.raises(VocabularyError):
            load_vocabulary(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text("not json at all", encoding="utf-8")
        with pytest.raises(VocabularyError):
            load_vocabulary(str(path))

    def test_round_trip(self, tmp_path):
        original = Vocabulary([b"x", b"\xff", b"a\\b", b" \t"], eos=4)
        path = tmp_path / "round.json"
        save_vocabulary(original, path)
        loaded = load_vocabulary(path)
        assert loaded.tokens == original.tokens
        assert loaded.eos == original.eos


class TestWhitespaceClass:
    def test_whitespace_ids(self):
        v = Vocabulary([b" ", b"\n\t", b"a", b" a"], eos=4)
        assert v.whitespace_token_ids() == [0, 1]
