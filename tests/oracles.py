"""Set-based sumset oracles shared by the sumset tests.

They add residues one pair at a time in Python sets and never touch a
bit-packed shift, so they share no code with the kernel under test.
"""


def brute_add(q, xs, ys):
    return {(x + y) % q for x in xs for y in ys}


def brute_k_fold(q, xs, k):
    acc = set(xs)
    for _ in range(k - 1):
        acc = brute_add(q, acc, xs)
    return acc
