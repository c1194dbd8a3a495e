"""Frozen reference fixtures shared across the test suite.

SERIES_A/SERIES_B are two published 12-pivot sentiment series used as a
worked example; PAIR_GRID is a published 9-book pairwise similarity
grid (only its lower triangle is internally consistent, so that
triangle is authoritative and mirrored). The EXPECTED_* constants were
produced by the straight-line implementations in oracle_reference.py
and frozen; tests compare the library against both.
"""

import random

SERIES_A = [0.73, 0.5, 0.6, 0.82, 0.89, 0.5, 0.53, 0.3, 0.71, 0.77, 0.6, 0.6]
SERIES_B = [0.62, 0.71, 0.75, 0.65, 0.82, 0.85, 0.9, 0.3, 0.4, 0.42, 0.42, 0.42]

EXPECTED_PS = 0.5097906819716408
EXPECTED_SD = 0.043968522095754546
EXPECTED_SPSI = 0.9587458030191548

# spsi([1,0],[0,1]) by hand: PS = 1/2, CF = [-1, +1], SD = 1.
CLOSED_FORM_SPSI = 0.5906161091496412

# Lower triangle of the 9-book grid, keyed (smaller, larger).
PAIR_GRID = {
    (1, 2): 0.32, (1, 3): 0.11, (1, 4): 0.76, (1, 5): 0.36,
    (1, 6): 0.16, (1, 7): 0.15, (1, 8): 0.62, (1, 9): 0.11,
    (2, 3): 0.18, (2, 4): 0.22, (2, 5): 0.31, (2, 6): 0.28,
    (2, 7): 0.32, (2, 8): 0.14, (2, 9): 0.23,
    (3, 4): 0.16, (3, 5): 0.58, (3, 6): 0.54, (3, 7): 0.73,
    (3, 8): 0.25, (3, 9): 0.41,
    (4, 5): 0.37, (4, 6): 0.26, (4, 7): 0.39, (4, 8): 0.57, (4, 9): 0.25,
    (5, 6): 0.49, (5, 7): 0.52, (5, 8): 0.16, (5, 9): 0.53,
    (6, 7): 0.66, (6, 8): 0.11, (6, 9): 0.50,
    (7, 8): 0.29, (7, 9): 0.86,
    (8, 9): 0.15,
}

GRID_IDS = ["1", "2", "3", "4", "5", "6", "7", "8", "9"]

GRID_PARTITION_AT_04 = [["1", "4", "8"], ["2"], ["3", "5", "6", "7", "9"]]

# Merge order at DT = 0.4; the fourth entry sits a hair above 0.58
# because (0.66 + 0.50) / 2 rounds up in binary, so it beats the exact
# 0.58 pair rather than tying with it.
GRID_TRACE_AT_04 = [
    ("7", "9", 0.86),
    ("1", "4", 0.76),
    ("1", "8", 0.595),
    ("6", "7", 0.5800000000000001),
    ("3", "5", 0.58),
    ("3", "6", 0.5366666666666666),
]
GRID_FIRST_MERGE = ("7", "9", 0.86)

GRID_ADAPTIVE_DT = 0.4641487347573878


def grid_matrix_values():
    """The mirrored 9x9 grid as a row-major list of lists."""
    n = len(GRID_IDS)
    values = [[1.0] * n for _ in range(n)]
    for (a, b), sim in PAIR_GRID.items():
        values[a - 1][b - 1] = sim
        values[b - 1][a - 1] = sim
    return values


def grid_pair_sims_str():
    """PAIR_GRID re-keyed with string ids for the clustering code."""
    return {(str(a), str(b)): v for (a, b), v in PAIR_GRID.items()}


# Series-mode merge trace of the default 100-book synthetic corpus under
# its recommended config: (left id, right id, repr of the similarity).
# Pinned bit for bit: a faster merge loop must reproduce it exactly.
SYNTH_MERGE_TRACE = [
    ("synth-091", "synth-096", "0.9992971139605281"),
    ("synth-009", "synth-024", "0.9988772026197384"),
    ("synth-012", "synth-015", "0.9988242458337602"),
    ("synth-019", "synth-022", "0.9987615038825265"),
    ("synth-004", "synth-011", "0.9987070994325604"),
    ("synth-000", "synth-023", "0.9986607620549287"),
    ("synth-001", "synth-019", "0.9985757795449031"),
    ("synth-001", "synth-007", "0.9985871953798516"),
    ("synth-003", "synth-021", "0.998529648348779"),
    ("synth-004", "synth-009", "0.9984622018393622"),
    ("synth-042", "synth-047", "0.9984268465784263"),
    ("synth-001", "synth-005", "0.9981915583877164"),
    ("synth-027", "synth-039", "0.9981469144675748"),
    ("synth-001", "synth-012", "0.9981235326373923"),
    ("synth-080", "synth-094", "0.9980606483293479"),
    ("synth-001", "synth-006", "0.9980477243461634"),
    ("synth-001", "synth-004", "0.998083783394114"),
    ("synth-058", "synth-071", "0.9980323918490955"),
    ("synth-086", "synth-092", "0.9980104103622432"),
    ("synth-058", "synth-067", "0.9979913107128116"),
    ("synth-038", "synth-041", "0.9979397544377299"),
    ("synth-077", "synth-099", "0.9978703485035897"),
    ("synth-002", "synth-014", "0.9978596789746714"),
    ("synth-027", "synth-033", "0.9977900785071755"),
    ("synth-027", "synth-036", "0.9979221289177751"),
    ("synth-082", "synth-093", "0.9977530803235851"),
    ("synth-080", "synth-086", "0.9977216086777221"),
    ("synth-076", "synth-080", "0.9977830036205865"),
    ("synth-077", "synth-097", "0.9976801715451454"),
    ("synth-001", "synth-002", "0.997640255815268"),
    ("synth-001", "synth-003", "0.9977836024377654"),
    ("synth-001", "synth-013", "0.9976217171995565"),
    ("synth-054", "synth-058", "0.9975609442405433"),
    ("synth-053", "synth-061", "0.9975377637051487"),
    ("synth-027", "synth-043", "0.9975055745943857"),
    ("synth-001", "synth-008", "0.9974392754928418"),
    ("synth-027", "synth-035", "0.9974172951563386"),
    ("synth-082", "synth-087", "0.9973081868268052"),
    ("synth-001", "synth-010", "0.9972474154831893"),
    ("synth-054", "synth-063", "0.9972278877501649"),
    ("synth-054", "synth-068", "0.9974356671245974"),
    ("synth-017", "synth-020", "0.9972063980352895"),
    ("synth-016", "synth-017", "0.9975091288728355"),
    ("synth-001", "synth-016", "0.9977215162041081"),
    ("synth-031", "synth-042", "0.9971350646518214"),
    ("synth-052", "synth-057", "0.9970563352798754"),
    ("synth-054", "synth-056", "0.996942630001937"),
    ("synth-054", "synth-060", "0.9970273008478165"),
    ("synth-076", "synth-077", "0.9969330178221246"),
    ("synth-076", "synth-098", "0.9969937118093716"),
    ("synth-052", "synth-070", "0.9969142383484481"),
    ("synth-052", "synth-065", "0.9969731061109546"),
    ("synth-029", "synth-037", "0.9969094780387326"),
    ("synth-027", "synth-029", "0.9971561205231955"),
    ("synth-025", "synth-027", "0.9970904852385294"),
    ("synth-051", "synth-074", "0.9968551606419652"),
    ("synth-051", "synth-054", "0.997138076008375"),
    ("synth-089", "synth-091", "0.9968326145610285"),
    ("synth-076", "synth-089", "0.9969320150176324"),
    ("synth-076", "synth-081", "0.9969032968948758"),
    ("synth-076", "synth-082", "0.9969460856824627"),
    ("synth-076", "synth-088", "0.9970954638030167"),
    ("synth-075", "synth-076", "0.9969283293872466"),
    ("synth-001", "synth-018", "0.9968282027330008"),
    ("synth-038", "synth-045", "0.9967141273948356"),
    ("synth-052", "synth-072", "0.9965990014539049"),
    ("synth-000", "synth-001", "0.9965007756248835"),
    ("synth-025", "synth-034", "0.9964781029618452"),
    ("synth-031", "synth-038", "0.9963389002065952"),
    ("synth-025", "synth-031", "0.9969107717472385"),
    ("synth-050", "synth-064", "0.9963330441112548"),
    ("synth-025", "synth-032", "0.9962956394093887"),
    ("synth-050", "synth-051", "0.9962081619867608"),
    ("synth-050", "synth-059", "0.9962597549519016"),
    ("synth-050", "synth-052", "0.9960622744993255"),
    ("synth-050", "synth-069", "0.996043602961551"),
    ("synth-025", "synth-049", "0.9959777087405361"),
    ("synth-075", "synth-078", "0.9957502745523152"),
    ("synth-025", "synth-028", "0.9954731846539279"),
    ("synth-050", "synth-062", "0.9953294363186473"),
    ("synth-050", "synth-055", "0.9952749675011369"),
    ("synth-075", "synth-084", "0.9951342422894021"),
    ("synth-025", "synth-030", "0.9948413158563734"),
    ("synth-075", "synth-085", "0.9946885935170887"),
    ("synth-026", "synth-044", "0.9945836981452615"),
    ("synth-025", "synth-026", "0.9953248512015895"),
    ("synth-050", "synth-066", "0.9945733080644649"),
    ("synth-025", "synth-048", "0.994382178377518"),
    ("synth-025", "synth-046", "0.9945584265963584"),
    ("synth-050", "synth-053", "0.9943570429304508"),
    ("synth-090", "synth-095", "0.9942104724186783"),
    ("synth-075", "synth-090", "0.995317796223209"),
    ("synth-075", "synth-083", "0.9942051199946829"),
    ("synth-050", "synth-073", "0.9938968632817767"),
    ("synth-075", "synth-079", "0.9938745003888071"),
    ("synth-025", "synth-040", "0.9934063003303545"),
]


# Matrix-mode trace of random_matrix_values(12, 0) at threshold 0: (left id,
# right id, repr of the similarity). Averages of these values round
# differently when summed in another order, so this pins that a merged
# cluster is scored as similarity_of(merged, other).
RANDOM12_TRACE = [
    ("b01", "b08", "0.9827854760376531"),
    ("b05", "b10", "0.9675402502901433"),
    ("b02", "b11", "0.9666063677707588"),
    ("b04", "b09", "0.8676027754927809"),
    ("b00", "b02", "0.8330336440678188"),
    ("b03", "b07", "0.8050278270130223"),
    ("b01", "b04", "0.7185165424776185"),
    ("b05", "b06", "0.6892059373146142"),
    ("b00", "b05", "0.638858990962489"),
    ("b00", "b01", "0.515695268670228"),
    ("b00", "b03", "0.4532537684687782"),
]


def random_matrix_values(n, seed):
    """Symmetric n x n values, unit diagonal, off-diagonal random.random()."""
    rng = random.Random(seed)
    values = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            values[i][j] = values[j][i] = rng.random()
    return values
