"""Sampled batches as items, (context, positive doc id, negative doc
ids), in place of the row indices the trainer feeds the ranker."""

from __future__ import annotations

from currank.curriculum import ledger_columns, pacing_negative, pacing_positive, sample_batch
from currank.towers import encode_corpus


def ledger_view(ledger):
    """The ledger's columns over rows that number its context ids and its
    doc ids in sorted order, and those two sorted id lists."""
    contexts = sorted(ledger.contexts)
    docs = sorted({e.positive_doc_id for e in ledger.positives}
                  | {d for neg in ledger.negatives.values() for d, _ in neg})
    columns = ledger_columns(ledger, {c: i for i, c in enumerate(contexts)},
                             {d: i for i, d in enumerate(docs)})
    return columns, contexts, docs


def sample_items(ledger, pacing, t, batch_size, m, rng, f_p=None, f_n=None):
    """curriculum.sample_batch on `ledger`'s columns, as items; f_p and
    f_n default to the pacing functions' values at step t."""
    columns, contexts, docs = ledger_view(ledger)
    f_p = pacing_positive(pacing, t) if f_p is None else f_p
    f_n = pacing_negative(pacing, t) if f_n is None else f_n
    batch = sample_batch(columns, t, batch_size, m, rng, f_p, f_n)
    return [(ledger.contexts[contexts[c]], docs[slate[0]],
             tuple(docs[d] for d in slate[1:]))
            for c, slate in zip(batch.contexts, batch.docs)]


def item_rows(vocab, documents, items):
    """The context rows and the slate document rows of `items`, laid out
    as EncodedCorpus.batch_rows lays out a sampled batch."""
    corpus = encode_corpus(vocab, documents, {c.context_id: c for c, _, _ in items})
    return (corpus.contexts.take([corpus.context_row[c.context_id] for c, _, _ in items]),
            corpus.docs.take([corpus.doc_row[d]
                              for _, pos, negs in items for d in (pos, *negs)]))
