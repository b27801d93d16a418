import json
import struct
import unicodedata

import numpy as np
import pytest

from avfuse import data as D
from avfuse.errors import ConfigError, DataFormatError, DomainError, ValidationError


class TestNormalizeCaption:
    def test_rule_application(self):
        assert D.normalize_caption("A Dog Barks!") == ["a", "dog", "barks"]

    def test_empty(self):
        assert D.normalize_caption("") == []

    def test_punctuation_table_oracle(self):
        raw = "jackhammer, running."
        expected = "".join(
            ch for ch in raw.lower() if not unicodedata.category(ch).startswith("P")
        ).split()
        assert D.normalize_caption(raw) == expected == ["jackhammer", "running"]

    def test_unicode_punctuation(self):
        assert D.normalize_caption("it\u2019s a \u201ctest\u201d \u2014 really") == [
            "its", "a", "test", "really",
        ]


class TestVocabulary:
    def test_reserved_ids_fixed(self):
        vocab = D.Vocabulary.build([["a", "a", "b"]], min_count=1)
        assert vocab.encode_token(D.PAD) == 0
        assert vocab.encode_token(D.SOS) == 1
        assert vocab.encode_token(D.EOS) == 2
        assert vocab.encode_token(D.UNK) == 3
        assert vocab.encode_token("a") == 4
        assert vocab.encode_token("b") == 5

    def test_min_count_filters(self):
        vocab = D.Vocabulary.build([["a", "a", "b"]], min_count=2)
        assert "a" in vocab and "b" not in vocab
        assert vocab.encode_token("b") == D.UNK_ID

    def test_deterministic_under_shuffle(self, rng):
        words = [f"w{i}" for i in range(30)]
        corpus = [[words[int(i)] for i in rng.integers(0, 30, size=8)] for _ in range(50)]
        shuffled = [list(c) for c in corpus]
        rng.shuffle(shuffled)
        v1 = D.Vocabulary.build(corpus)
        v2 = D.Vocabulary.build(shuffled)
        assert v1.to_json() == v2.to_json()

    def test_empty_corpus_rejected(self):
        with pytest.raises(DomainError):
            D.Vocabulary.build([])

    def test_bijective(self):
        vocab = D.Vocabulary.build([["dog", "cat", "dog"]])
        for i in range(len(vocab)):
            assert vocab.encode_token(vocab.decode_id(i)) == i


class TestEncodeCaption:
    @pytest.fixture
    def vocab(self):
        return D.Vocabulary.build([["a", "dog", "barks", "cat", "sits"]])

    def test_empty_caption(self, vocab):
        ids = D.encode_caption([], vocab, max_len=5)
        assert ids.tolist() == [D.SOS_ID, D.EOS_ID, 0, 0, 0]
        assert np.count_nonzero(ids != D.PAD_ID) == 2

    def test_single_token(self, vocab):
        ids = D.encode_caption(["dog"], vocab, max_len=6)
        assert ids.tolist() == [1, vocab.encode_token("dog"), 2, 0, 0, 0]
        assert np.count_nonzero(ids != D.PAD_ID) == 3

    def test_truncation_keeps_eos_last(self, vocab):
        ids = D.encode_caption(["a", "dog", "barks", "cat", "sits"], vocab, max_len=4)
        assert ids[0] == D.SOS_ID
        assert ids[3] == D.EOS_ID
        assert np.count_nonzero(ids != D.PAD_ID) == 4

    def test_round_trip_property(self, vocab, rng):
        words = ["a", "dog", "barks", "cat", "sits"]
        for _ in range(100):
            n = int(rng.integers(0, 6))
            caption = [words[int(i)] for i in rng.integers(0, len(words), size=n)]
            ids = D.encode_caption(caption, vocab, max_len=n + 3)
            assert D.decode_caption(ids, vocab) == caption

    def test_max_len_floor(self, vocab):
        with pytest.raises(ConfigError):
            D.encode_caption(["a"], vocab, max_len=2)


class TestFeatureFile:
    def test_minimal_file_size(self, tmp_path):
        path = tmp_path / "x.avf"
        D.write_feature_file(path, np.array([[1.0]], dtype=np.float32))
        assert path.stat().st_size == 13 + 4
        back = D.read_feature_file(path)
        assert back.shape == (1, 1) and back[0, 0] == 1.0

    def test_bad_magic_names_expected(self, tmp_path):
        path = tmp_path / "bad.avf"
        D.write_feature_file(path, np.zeros((2, 3), dtype=np.float32))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError) as exc:
            D.read_feature_file(path)
        assert "AVF1" in str(exc.value)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.avf"
        D.write_feature_file(path, np.zeros((4, 4), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataFormatError) as exc:
            D.read_feature_file(path)
        assert "truncated" in str(exc.value)

    def test_huge_declared_payload_is_truncated_before_any_read(self, tmp_path):
        # 4·T·d bytes is past what one read may request: the size check must come first
        path = tmp_path / "huge.avf"
        path.write_bytes(struct.pack("<4sIIB", b"AVF1", 2**31, 2**31, 0) + b"\x00" * 16)
        with pytest.raises(DataFormatError) as exc:
            D.read_feature_file(path)
        assert str(exc.value) == (f"{path}: truncated payload, expected {4 * 2**62} bytes "
                                  f"for {2**31}x{2**31}")

    def test_oversized_payload(self, tmp_path):
        path = tmp_path / "over.avf"
        D.write_feature_file(path, np.zeros((2, 2), dtype=np.float32))
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(DataFormatError):
            D.read_feature_file(path)

    def test_round_trip_bit_exact_fuzz(self, tmp_path, rng):
        path = tmp_path / "fuzz.avf"
        for _ in range(1000):
            t = int(rng.integers(1, 5))
            d = int(rng.integers(1, 5))
            mat = rng.normal(scale=rng.uniform(1e-30, 1e30), size=(t, d)).astype(np.float32)
            D.write_feature_file(path, mat)
            back = D.read_feature_file(path)
            assert back.dtype == np.float32
            assert np.array_equal(
                back.view(np.uint32), mat.view(np.uint32)
            ), "bit-level mismatch"

    def test_signed_zero_preserved(self, tmp_path):
        path = tmp_path / "zero.avf"
        mat = np.array([[0.0, -0.0]], dtype=np.float32)
        D.write_feature_file(path, mat)
        back = D.read_feature_file(path)
        assert not np.signbit(back[0, 0]) and np.signbit(back[0, 1])


class TestManifest:
    def _write(self, tmp_path, lines):
        p = tmp_path / "m.jsonl"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return p

    def _feature(self, tmp_path, name="a.avf"):
        D.write_feature_file(tmp_path / name, np.zeros((2, 2), dtype=np.float32))
        return name

    def test_single_valid_line(self, tmp_path):
        feat = self._feature(tmp_path)
        p = self._write(
            tmp_path, [json.dumps({"id": "x", "audio": feat, "captions": ["a dog"]})]
        )
        manifest = D.load_manifest(p)
        assert len(manifest) == 1
        assert manifest.records[0].id == "x"

    def test_missing_captions_cites_line(self, tmp_path):
        feat = self._feature(tmp_path)
        p = self._write(tmp_path, [json.dumps({"id": "x", "audio": feat})])
        with pytest.raises(ValidationError) as exc:
            D.load_manifest(p)
        assert "line 1" in str(exc.value) and "captions" in str(exc.value)

    def test_bad_middle_line_named_exactly(self, tmp_path):
        feat = self._feature(tmp_path)
        good = json.dumps({"id": "g", "audio": feat, "captions": ["ok"]})
        bad = json.dumps({"id": "b", "captions": ["no audio"]})
        p = self._write(tmp_path, [good, bad, good])
        with pytest.raises(ValidationError) as exc:
            D.load_manifest(p)
        assert "line 2" in str(exc.value)

    def test_duplicate_id_names_second_line(self, tmp_path):
        feat = self._feature(tmp_path)
        first = json.dumps({"id": "x", "audio": feat, "captions": ["a dog"]})
        other = json.dumps({"id": "y", "audio": feat, "captions": ["a cat"]})
        again = json.dumps({"id": "x", "audio": feat, "captions": ["a bell"]})
        p = self._write(tmp_path, [first, other, again])
        with pytest.raises(ValidationError) as exc:
            D.load_manifest(p)
        assert "line 3" in str(exc.value) and "'x'" in str(exc.value)

    @pytest.mark.parametrize("bad", ["5", '"x"', "[1]", "null"])
    def test_non_object_line_names_line(self, tmp_path, bad):
        feat = self._feature(tmp_path)
        good = json.dumps({"id": "x", "audio": feat, "captions": ["a dog"]})
        p = self._write(tmp_path, [good, bad])
        with pytest.raises(ValidationError) as exc:
            D.load_manifest(p)
        assert "line 2" in str(exc.value) and "JSON object" in str(exc.value)

    @pytest.mark.parametrize("bad", [b"\x80", b"1" * 5000], ids=["not-utf8", "long-int"])
    def test_undecodable_line_names_line(self, tmp_path, bad):
        good = json.dumps({"id": "x", "audio": self._feature(tmp_path), "captions": ["a dog"]})
        p = tmp_path / "m.jsonl"
        p.write_bytes(good.encode() + b"\n" + bad + b"\n")
        with pytest.raises(ValidationError) as exc:
            D.load_manifest(p)
        assert str(exc.value).startswith(f"{p}: line 2: invalid record: ")

    def test_too_many_captions(self, tmp_path):
        feat = self._feature(tmp_path)
        p = self._write(
            tmp_path,
            [json.dumps({"id": "x", "audio": feat, "captions": ["c"] * 6})],
        )
        with pytest.raises(ValidationError):
            D.load_manifest(p)

    def test_dangling_path(self, tmp_path):
        p = self._write(
            tmp_path, [json.dumps({"id": "x", "audio": "missing.avf", "captions": ["c"]})]
        )
        with pytest.raises(ValidationError) as exc:
            D.load_manifest(p)
        assert "missing.avf" in str(exc.value)

    def test_order_preserved(self, tmp_path):
        feat = self._feature(tmp_path)
        lines = [
            json.dumps({"id": f"r{i}", "audio": feat, "captions": ["c"]}) for i in range(5)
        ]
        manifest = D.load_manifest(self._write(tmp_path, lines))
        assert [r.id for r in manifest.records] == [f"r{i}" for i in range(5)]


class TestSyntheticTask:
    def test_unambiguous_noiseless_audio_separates(self, tmp_path):
        spec = D.SyntheticTaskSpec(
            n_classes=4, n_ambiguous_pairs=0, noise_std=0.0,
            examples_per_class=2, eval_examples_per_class=1,
            t_audio=3, t_visual=2, feature_dim=8, seed=3,
        )
        task = D.generate_synthetic_task(spec, tmp_path)
        protos = task.audio_prototypes
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(protos[i] - protos[j]) > 0

    def test_paired_classes_share_audio_bits_differ_visual(self, tmp_path):
        spec = D.SyntheticTaskSpec(
            n_classes=4, n_ambiguous_pairs=2, noise_std=0.0,
            examples_per_class=1, eval_examples_per_class=1,
            t_audio=3, t_visual=2, feature_dim=8, seed=0,
        )
        task = D.generate_synthetic_task(spec, tmp_path)
        manifest = D.load_manifest(task.train_manifest)
        by_id = {r.id: r for r in manifest.records}
        a0 = D.read_feature_file(manifest.resolve(by_id["train-00-000"].audio))
        a1 = D.read_feature_file(manifest.resolve(by_id["train-01-000"].audio))
        assert np.array_equal(a0, a1)
        v0 = D.read_feature_file(manifest.resolve(by_id["train-00-000"].visual_features))
        v1 = D.read_feature_file(manifest.resolve(by_id["train-01-000"].visual_features))
        assert np.linalg.norm(v0 - v1) > 0

    def test_pair_prototype_distances(self, tmp_path):
        spec = D.SyntheticTaskSpec(
            n_classes=6, n_ambiguous_pairs=2, noise_std=0.1,
            examples_per_class=1, eval_examples_per_class=1,
            t_audio=2, t_visual=2, feature_dim=4, seed=9,
        )
        task = D.generate_synthetic_task(spec, tmp_path)
        for p in range(2):
            a, b = 2 * p, 2 * p + 1
            assert np.linalg.norm(task.audio_prototypes[a] - task.audio_prototypes[b]) == 0.0
            assert np.linalg.norm(task.visual_prototypes[a] - task.visual_prototypes[b]) > 0

    def test_same_seed_bit_identical_datasets(self, tmp_path):
        spec = D.SyntheticTaskSpec(
            n_classes=2, n_ambiguous_pairs=1, noise_std=0.5,
            examples_per_class=3, eval_examples_per_class=2,
            t_audio=3, t_visual=2, feature_dim=4, seed=11,
        )
        d1, d2 = tmp_path / "one", tmp_path / "two"
        t1 = D.generate_synthetic_task(spec, d1)
        t2 = D.generate_synthetic_task(spec, d2)
        assert t1.train_manifest.read_bytes() == t2.train_manifest.read_bytes()
        for f1 in sorted((d1 / "features").iterdir()):
            f2 = d2 / "features" / f1.name
            assert f1.read_bytes() == f2.read_bytes()

    def test_caption_pairs_differ_in_object_word_only(self):
        spec = D.SyntheticTaskSpec(n_classes=4, n_ambiguous_pairs=2)
        c0 = D.normalize_caption(spec.class_caption(0))
        c1 = D.normalize_caption(spec.class_caption(1))
        assert len(c0) == len(c1)
        assert sum(a != b for a, b in zip(c0, c1)) == 1

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            D.SyntheticTaskSpec(n_classes=3, n_ambiguous_pairs=2).validate()
        with pytest.raises(ConfigError):
            D.SyntheticTaskSpec(noise_std=-0.1).validate()
