"""The scoring layer: tolerance windows, maximum matching, F-beta.

Shows how predicted boundaries are paired with references in one pass over
the two sorted time lists, why the pairing must be a maximum matching rather
than a greedy nearest-first pass, and how per-track scores aggregate into
the corpus table.
"""

from songseg import BoundarySet, match_boundaries, prf, score_corpus
from songseg.evaluation import format_score_table

# ---------------------------------------------------------------------------
# A single track: two of three predictions land within +/-0.5 s.
# ---------------------------------------------------------------------------
reference = BoundarySet([12.0, 35.5, 61.2])
estimate = BoundarySet([12.3, 40.0, 61.0])
m = match_boundaries(reference, estimate, tolerance=0.5)
print(f"matched pairs: {m.pairs}")
print(f"tp={m.tp} fp={m.fp} fn={m.fn}")
p, r, f1 = prf(m, beta=1.0)
print(f"precision {p:.3f}  recall {r:.3f}  F1 {f1:.3f}")

# ---------------------------------------------------------------------------
# Why maximum matching matters: a greedy nearest-first pass takes the closest
# pair, 1.3 with 1.4, and strands the reference at 1.0, since 1.9 is out of
# its window. Pairing each reference in time order with the first free
# estimate in its window is a maximum matching and finds two hits.
# ---------------------------------------------------------------------------
ref = BoundarySet([1.0, 1.4])
est = BoundarySet([1.3, 1.9])
m = match_boundaries(ref, est, tolerance=0.5)
print(f"\ngreedy-trap case: tp={m.tp} (greedy nearest-first would report 1)")
print(f"pairs: {m.pairs}")

# ---------------------------------------------------------------------------
# Corpus scores are per-track means (with population std), not pooled
# counts: the distinction changes the headline number.
# ---------------------------------------------------------------------------
corpus = [
    (BoundarySet([10.0, 20.0]), BoundarySet([10.1, 20.2])),   # perfect
    (BoundarySet([15.0, 30.0]), BoundarySet([15.2])),         # one miss
    (BoundarySet([8.0]), BoundarySet([8.1, 40.0, 55.0])),     # false alarms
]
reports = [score_corpus(corpus, tolerance=0.5, beta=beta)
           for beta in (1.0, 0.58)]
print("\nper-track F1:", [round(f, 3) for _, _, f in reports[0].per_track])
print(format_score_table(reports, "demo corpus"))
