"""Golden table: the 24 trees with at most 7 vertices and their known sums,
and the 8-vertex worked example E_8.

Each entry pins the exact closed form (written in the variable u = t^2, the
natural variable for trees without half-edge, whose series have only even
powers of t), the exact evaluation at 1/4 as a polynomial in 1/pi, the
first seven series coefficients in u, and a truncated decimal.  The `table`
command and the acceptance tests recompute everything from scratch and diff
against these entries.

Each closed form, E_8's included, is the body of a `lambda h1, h2, t: ...`,
with t standing for the u variable.  Its arithmetic is that of
`AlgebraElement`, so no text is evaluated: `closed_form_element` calls it
with H1, H2 and the element t^2 to land back in the working algebra.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .algebra import H1, H2, AlgebraElement, Laurent, PiPoly


@dataclass(frozen=True)
class TableEntry:
    label: str
    tree_text: str
    # The closed form as an expression in h1, h2 and t, with t the squared variable.
    closed_form: Callable[[AlgebraElement, AlgebraElement, AlgebraElement], AlgebraElement]
    evaluation: dict[int, str]  # 1/pi degree -> rational
    series: tuple[int, ...]  # coefficients of u^0..u^6
    approx: str  # truncated decimal of the evaluation


TABLE: list[TableEntry] = [
    TableEntry(
        "T_{2,a}", "(())",
        lambda h1, h2, t: (h1 - 1) / (4*t),
        {1: "16", 0: "-4"},
        (1, 1, 4, 25, 196, 1764, 17424), "1.092958",
    ),
    TableEntry(
        "T_{3,a}", "(()())",
        lambda h1, h2, t: (1 - h2) / (2*t),
        {1: "-64/3", 0: "8"},
        (1, 2, 10, 70, 588, 5544, 56628), "1.209389",
    ),
    TableEntry(
        "T_{4,a}", "((())())",
        lambda h1, h2, t: (h1**2 + 2*h1 - 16*t - 3) / (32*t**2),
        {2: "128", 1: "64", 0: "-32"},
        (1, 3, 17, 127, 1111, 10772, 112305), "1.340944",
    ),
    TableEntry(
        "T_{4,b}", "(()()())",
        lambda h1, h2, t: (h1 - (6*t + 1)*h2) / (20*t**2),
        {1: "64/15"},
        (1, 3, 18, 140, 1260, 12474, 132132), "1.358122",
    ),
    TableEntry(
        "T_{5,a}", "((())(()))",
        lambda h1, h2, t: (h1 - 4*t - 1) / (4*t**2),
        {1: "256", 0: "-80"},
        (1, 4, 25, 196, 1764, 17424, 184041), "1.487330",
    ),
    TableEntry(
        "T_{5,b}", "((())()())",
        lambda h1, h2, t: (-h1*h2 - h1 - h2 + 4*t + 3) / (8*t**2),
        {2: "-1024/3", 1: "-640/3", 0: "104"},
        (1, 4, 26, 211, 1952, 19708, 211880), "1.509593",
    ),
    TableEntry(
        "T_{5,c}", "(()()()())",
        lambda h1, h2, t: ((2*t + 1)*h1 - (32*t**2 + 8*t + 1)*h2) / (140*t**3),
        {1: "512/105"},
        (1, 4, 28, 240, 2310, 24024, 264264), "1.552139",
    ),
    TableEntry(
        "T_{6,a}", "(((()))(()))",
        lambda h1, h2, t: (h1**3 - 3*h1**2 - (112*t + 13)*h1 - 256*t*h2 + 432*t + 15) / (384*t**3),
        {3: "2048/3", 2: "-512", 1: "-11776/9", 0: "448"},
        (1, 5, 34, 278, 2563, 25701, 274210), "1.649799",
    ),
    TableEntry(
        "T_{6,b}", "(((()))()())",
        lambda h1, h2, t: -(h2 + 2*t - 1) / (4*t**2),
        {1: "-512/3", 0: "56"},
        (1, 5, 35, 294, 2772, 28314, 306735), "1.675112",
    ),
    TableEntry(
        "T_{6,c}", "((())(())())",
        lambda h1, h2, t: (h1**3 + 3*h1**2 - (16*t + 1)*h1 + 32*t*h2 - (48*t + 3)) / (192*t**3),
        {3: "4096/3", 2: "1024", 1: "-512/9", 0: "-128"},
        (1, 5, 35, 295, 2794, 28671, 311963), "1.678691",
    ),
    TableEntry(
        "T_{6,d}", "((()())()())",
        lambda h1, h2, t: (h1**2 + 8*t*h2**2 + (8*t + 2)*h1 + 16*t*h2 - (48*t + 3)) / (32*t**3),
        {2: "22528/9", 1: "4864/3", 0: "-768"},
        (1, 5, 36, 311, 3004, 31313, 345064), "1.704609",
    ),
    TableEntry(
        "T_{6,e}", "((())()()())",
        lambda h1, h2, t: (
            (h1**2 - (6*t + 1)*h1*h2 + 10*t*h2**2 + h1 + (14*t - 1)*h2 + 40*t**2 - 30*t)
            / (80*t**3)
        ),
        {2: "13312/45", 1: "2816/15", 0: "-88"},
        (1, 5, 37, 327, 3214, 33954, 378130), "1.730433",
    ),
    TableEntry(
        "T_{6,f}", "(()()()()())",
        lambda h1, h2, t: ((10*t**2 + 1)*h1 - (160*t**3 + 30*t**2 + 6*t + 1)*h2) / (840*t**4),
        {1: "256/45"},
        (1, 5, 40, 375, 3850, 42042, 480480), "1.810829",
    ),
    TableEntry(
        "T_{7,a}", "(((()))((())))",
        lambda h1, h2, t: (5*h1**2 + 6*h1 + (64*t + 4)*h2 - (120*t + 15)) / (80*t**3),
        {2: "4096", 1: "34816/15", 0: "-1152"},
        (1, 6, 44, 374, 3526, 35850, 385944), "1.830034",
    ),
    TableEntry(
        "T_{7,b}", "(((()))(()()))",
        lambda h1, h2, t: (
            ((40*t + 54)*h1 + (176*t + 11)*h2 + 5*h1**2 + 10*h1*h2 - 5*h1**2*h2
            - (440*t + 75)) / (320*t**3)
        ),
        {3: "-8192/3", 2: "7168/3", 1: "54656/15", 0: "-1312"},
        (1, 6, 45, 391, 3756, 38790, 423086), "1.858234",
    ),
    TableEntry(
        "T_{7,c}", "(((()))(())())",
        lambda h1, h2, t: (3 - h1 - 2*h2) / (4*t**2),
        {1: "-1792/3", 0: "192"},
        (1, 6, 45, 392, 3780, 39204, 429429), "1.862894",
    ),
    TableEntry(
        "T_{7,d}", "((())(())(()))",
        lambda h1, h2, t: (3*h1**2 + 32*t*h2 - 2*h1 - (48*t + 1)) / (32*t**3),
        {2: "6144", 1: "-1024/3", 0: "-512"},
        (1, 6, 45, 393, 3804, 39618, 435773), "1.867577",
    ),
    TableEntry(
        "T_{7,e}", "((()())(()()))",
        lambda h1, h2, t: -(h2**2 + 4*t - 1) / (4*t**2),
        {2: "-4096/9", 0: "48"},
        (1, 6, 46, 408, 3988, 41788, 461378), "1.887603",
    ),
    TableEntry(
        "T_{7,f}", "((()())(())())",
        lambda h1, h2, t: (
            (6*h1 - (16*t + 1)*h2 - 5*h1**2 - 10*h1*h2 - 5*h1**2*h2 + 80*t + 15)
            / (320*t**3)
        ),
        {3: "-8192/3", 2: "-7168/3", 1: "3584/15", 0: "256"},
        (1, 6, 46, 410, 4035, 42589, 473562), "1.896570",
    ),
    TableEntry(
        "T_{7,g}", "(((()))()()())",
        lambda h1, h2, t: (5*t*h2**2 + h1 - (6*t + 1)*h2 - 5*t) / (40*t**3),
        {2: "2048/9", 1: "512/15", 0: "-32"},
        (1, 6, 47, 426, 4243, 45172, 505475), "1.921175",
    ),
    TableEntry(
        "T_{7,h}", "((())(())()())",
        lambda h1, h2, t: (
            ((40*t + 6)*h1 + (64*t - 1)*h2 - 5*h1**2 - 10*h1*h2 - 5*h1**2*h2
            - (40*t - 15)) / (160*t**3)
        ),
        {3: "-16384/3", 2: "-14336/3", 1: "5376/5", 0: "320"},
        (1, 6, 47, 428, 4290, 45974, 517695), "1.930246",
    ),
    TableEntry(
        "T_{7,i}", "((()())()()())",
        lambda h1, h2, t: (
            ((24*t + 4)*h2**2 - 34*h1 - (56*t + 16)*h2 - 5*h1**2 - 24*h1*h2 + 240*t + 75)
            / (160*t**3)
        ),
        {2: "-342016/45", 1: "-24064/5", 0: "2304"},
        (1, 6, 48, 445, 4524, 49033, 557248), "1.961158",
    ),
    TableEntry(
        "T_{7,j}", "((())()()()())",
        lambda h1, h2, t: (
            ((4*t + 2)*h1**2 - 2*(32*t**2 + 22*t + 1)*h1*h2 + (168*t**2 + 28*t)*h2**2
            - (24*t - 2)*h1 + (104*t**2 + 12*t - 2)*h2 + 560*t**3) / (1120*t**4)
        ),
        {2: "-4096/315", 1: "-512/35", 0: "8"},
        (1, 6, 50, 480, 5014, 55504, 641436), "2.026084",
    ),
    TableEntry(
        "T_{7,k}", "(()()()()()())",
        lambda h1, h2, t: (
            ((48*t**3 + 7*t**2 - 3*t + 1)*h1 - (768*t**4 + 130*t**3 + 9*t**2 + 3*t + 1)*h2)
            / (4620*t**5)
        ),
        {1: "23552/3465"},
        (1, 6, 54, 550, 6006, 68796, 816816), "2.163588",
    ),
]

# The 8-vertex worked example.
LINE_EXAMPLE_8 = TableEntry(
    "E_8", "((()())(()())())",
    lambda h1, h2, t: (
        (105*t*h1*h2**2 + 210*t*h1*h2 + 105*t*h2**2 + 3*(67*t + 2)*h1
         - 3*(232*t**2 + 114*t + 2)*h2 - (840*t**2 + 315*t)) / (1680*t**4)
    ),
    {3: "65536/9", 2: "65536/9", 1: "-8192/35", 0: "-896"},
    (1, 7, 58, 542, 5508, 59508), "2.144147",
)


def closed_form_element(entry: TableEntry) -> AlgebraElement:
    """The entry's closed form as an element of the working (t-variable) algebra."""
    return entry.closed_form(H1, H2, AlgebraElement.from_laurent(Laurent.t_power(2)))


def evaluation_pipoly(entry: TableEntry) -> PiPoly:
    return PiPoly({d: Fraction(v) for d, v in entry.evaluation.items()})
