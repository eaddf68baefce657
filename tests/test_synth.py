import hashlib
import io
import json
from pathlib import Path

import pytest

from currank.sessions import build_contexts
from currank.synth import (
    SynthSpec,
    generate_synthetic,
    write_labels,
    write_session_log,
)
from oracles import method_generate_synthetic

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "acceptance_corpus.json"


def acceptance_spec() -> SynthSpec:
    fixture = json.loads(FIXTURE_PATH.read_text())
    del fixture["session_log_sha256"]
    return SynthSpec(**fixture)


class TestSynthSpec:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            SynthSpec(n_sessions=0)
        with pytest.raises(ValueError):
            SynthSpec(n_sessions=10, noise_rate=1.0)

    def test_rejects_vocab_too_small_for_topics(self):
        with pytest.raises(ValueError):
            SynthSpec(n_sessions=10, vocab_size=20, n_topics=10)


class TestGenerateSynthetic:
    def test_deterministic_under_seed(self):
        spec = SynthSpec(n_sessions=20, seed=5)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert a[0] == b[0]
        assert a[1] == b[1]
        assert a[2] == b[2]
        # byte-identical serialized output
        bufs = []
        for sessions, documents, labels in (a, b):
            buf = io.StringIO()
            write_session_log(sessions, documents, buf)
            write_labels(labels, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_different_seed_differs(self):
        a = generate_synthetic(SynthSpec(n_sessions=20, seed=5))
        b = generate_synthetic(SynthSpec(n_sessions=20, seed=6))
        assert a[0] != b[0]

    def test_interaction_count(self):
        sessions, _, _ = generate_synthetic(
            SynthSpec(n_sessions=100, queries_per_session=3, seed=1)
        )
        assert sum(len(s.interactions) for s in sessions) == 300

    def test_noise_zero_click_has_max_topic_overlap(self):
        spec = SynthSpec(n_sessions=30, noise_rate=0.0, seed=9)
        sessions, documents, labels = generate_synthetic(spec)
        terms_per_topic = spec.vocab_size // spec.n_topics
        for session in sessions:
            topic = labels[session.session_id]
            topic_terms = {
                f"w{topic * terms_per_topic + j:05d}" for j in range(terms_per_topic)
            }
            for inter in session.interactions:
                overlaps = {
                    d: len(set(documents[d]) & topic_terms)
                    for d in inter.candidate_doc_ids
                }
                for clicked in inter.clicked_doc_ids:
                    others = [v for d, v in overlaps.items() if d != clicked]
                    assert overlaps[clicked] > max(others)

    def test_clicks_subset_of_candidates(self):
        sessions, _, _ = generate_synthetic(SynthSpec(n_sessions=10, seed=2))
        for session in sessions:
            for inter in session.interactions:
                assert inter.clicked_doc_ids <= set(inter.candidate_doc_ids)

    def test_labels_not_on_training_objects(self):
        sessions, documents, _ = generate_synthetic(SynthSpec(n_sessions=5, seed=3))
        for session in sessions:
            assert not hasattr(session, "topic")
        contexts, _ = build_contexts(sessions, documents)
        for ctx in contexts:
            assert not hasattr(ctx, "topic")

    def test_label_sidecar_round_trip(self):
        _, _, labels = generate_synthetic(SynthSpec(n_sessions=12, seed=4))
        buf = io.StringIO()
        write_labels(labels, buf)
        records = map(json.loads, buf.getvalue().splitlines())
        assert {r["session_id"]: r["topic_id"] for r in records} == labels


class TestDrawsMatchRandomMethods:
    """generate_synthetic draws its indices from getrandbits as random.Random's
    choice, randrange and shuffle do, so its corpus is method_generate_synthetic's."""

    @pytest.mark.parametrize("spec", [
        SynthSpec(n_sessions=200),
        SynthSpec(n_sessions=200, seed=1),
        SynthSpec(n_sessions=200, seed=12345),
        acceptance_spec(),
        SynthSpec(n_sessions=200, n_topics=1, seed=2),
        # no distractors: no shuffle swap, no noise draw
        SynthSpec(n_sessions=200, candidates_per_query=1, seed=3),
        # pool_size 34: a 6-bit width; 16 distractors, a 5-bit swap width
        SynthSpec(n_sessions=200, candidates_per_query=17, seed=4),
        # 50 terms per topic: rng.sample takes its set branch
        SynthSpec(n_sessions=200, vocab_size=1000, n_topics=20, seed=5),
        # 4 terms per topic, the fewest; 16 topics and a 16-document pool, powers of two
        SynthSpec(n_sessions=200, vocab_size=64, n_topics=16, candidates_per_query=8, seed=6),
        SynthSpec(n_sessions=200, noise_rate=0.0, seed=7),
        SynthSpec(n_sessions=200, noise_rate=0.9, seed=8),
        SynthSpec(n_sessions=200, queries_per_session=1, seed=9),
        SynthSpec(n_sessions=200, queries_per_session=5, seed=10),
        SynthSpec(n_sessions=200, vocab_size=12, n_topics=3, candidates_per_query=4,
                  noise_rate=0.5, seed=11),
    ], ids=repr)
    def test_same_corpus_as_method_draws(self, spec):
        sessions, documents, labels = generate_synthetic(spec)
        old_sessions, old_documents, old_labels = method_generate_synthetic(spec)
        assert sessions == old_sessions
        assert list(documents.items()) == list(old_documents.items())
        assert list(labels.items()) == list(old_labels.items())

    def test_acceptance_log_digest(self):
        """The committed fixture digest that criteria 7 and 8 check, without their training."""
        sessions, documents, _ = generate_synthetic(acceptance_spec())
        buf = io.StringIO()
        write_session_log(sessions, documents, buf)
        digest = json.loads(FIXTURE_PATH.read_text())["session_log_sha256"]
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


class TestLogExport:
    def test_generated_log_reingests_identically(self):
        from currank.sessions import parse_sessions

        sessions, documents, _ = generate_synthetic(SynthSpec(n_sessions=15, seed=8))
        buf = io.StringIO()
        write_session_log(sessions, documents, buf)
        parsed_sessions, parsed_documents = parse_sessions(
            io.StringIO(buf.getvalue())
        )
        assert parsed_sessions == sessions
        assert parsed_documents == documents
