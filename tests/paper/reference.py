"""The paper's published numbers, printed beside ours when a shape fails.

PAPER.md carries only the title, so this module is the repo's record of
what Gaussier et al. (SC 2015) measured on the six real logs.  AVEbsld
unless stated; our logs are calibrated synthetic stand-ins, so the tests
assert the *shapes* these numbers make, never the numbers.
"""

#: Table 6, per log: (Clairvoyant FCFS, Clairvoyant SJBF, EASY, EASY++,
#: learning FCFS (best, worst), learning SJBF (best, worst)).  Table 1's
#: EASY and EASY-Clairvoyant columns are this table's EASY and
#: Clairvoyant FCFS columns.
PAPER_TABLE6 = {
    "KTH-SP2": (71.7, 49.8, 92.6, 63.5, (62.6, 93.2), (51.4, 74.5)),
    "CTC-SP2": (37.2, 17.6, 49.6, 85.8, (25.5, 163.5), (16.3, 134.7)),
    "SDSC-SP2": (70.5, 56.8, 87.9, 79.4, (70.9, 102.3), (69.7, 194.8)),
    "SDSC-BLUE": (30.6, 13.2, 36.5, 21.0, (16.5, 48.0), (12.6, 47.8)),
    "Curie": (69.9, 12.1, 202.1, 193.5, (26.3, 9348.8), (24.3, 4010.0)),
    "Metacentrum": (81.7, 67.2, 97.6, 87.2, (86.3, 98.1), (81.5, 89.8)),
}

#: Table 7, per log: (cross-validated triple's AVEbsld, its reduction
#: against EASY in %); the EASY and EASY++ columns are Table 6's.
PAPER_TABLE7 = {
    "KTH-SP2": (51.4, 44),
    "CTC-SP2": (20.5, 59),
    "SDSC-SP2": (75.0, 15),
    "SDSC-BLUE": (34.7, 5),
    "Curie": (27.9, 86),
    "Metacentrum": (84.2, 14),
}

#: Table 7's average reductions of the cross-validated triple, % against
#: (EASY, EASY++).
PAPER_TABLE7_REDUCTIONS = (28.0, 11.0)

#: Table 8 on Curie, per technique: (MAE in seconds, mean E-Loss).
PAPER_TABLE8 = {
    "AVE2": (5217.0, 10.2e8),
    "E-Loss Regression": (6762.0, 2.35e5),
}

#: Figure 3: (mean, min, max) pairwise Pearson correlation of the
#: triples' AVEbsld across logs.
PAPER_FIG3_CORRELATION = (0.26, 0.01, 0.80)
