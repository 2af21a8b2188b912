"""Random valid-document generator shared by the DSL and acceptance tests."""

import numpy as np

from thermobit import bitops, dsl
from thermobit.info import Distribution
from thermobit.markov import Channel

BITOPS = list(bitops.OPS)
FORMATS = list(dsl.REPORT_FORMATS)


def _random_row(rng: np.random.Generator, n: int) -> np.ndarray:
    """A stochastic row, sometimes sparse so zero targets get exercised."""
    row = np.zeros(n)
    if n > 1 and rng.random() < 0.4:
        k = int(rng.integers(1, n + 1))
        targets = rng.choice(n, size=k, replace=False)
        row[targets] = rng.dirichlet(np.ones(k))
    else:
        row[:] = rng.dirichlet(np.ones(n))
    return row


def random_document(rng: np.random.Generator) -> dsl.ProtocolSpec:
    systems: dict[str, dsl.SystemDecl] = {}
    for si in range(int(rng.integers(1, 4))):
        n = int(rng.integers(1, 5))
        name = f"sys{si}"
        states = tuple(f"s{si}x{j}" for j in range(n))
        systems[name] = dsl.SystemDecl(
            name=name,
            states=states,
            temperature=float(np.exp(rng.uniform(-2.0, 2.0))),
            boltzmann=float(rng.choice([1.0, 1.380649e-23])),
            energies=tuple(float(x) for x in rng.uniform(-5.0, 5.0, n)),
        )
    system_names = list(systems)

    dists: dict[str, dsl.DistDecl] = {}
    for di in range(int(rng.integers(0, 4))):
        system = systems[system_names[int(rng.integers(len(system_names)))]]
        n = len(system.states)
        name = f"d{di}"
        dists[name] = dsl.DistDecl(
            name=name,
            system=system.name,
            dist=Distribution(rng.dirichlet(np.ones(n))),
        )

    channels: dict[str, dsl.ChannelDecl] = {}
    for ci in range(int(rng.integers(0, 3))):
        system = systems[system_names[int(rng.integers(len(system_names)))]]
        n = len(system.states)
        matrix = np.vstack([_random_row(rng, n) for _ in range(n)])
        name = f"c{ci}"
        channels[name] = dsl.ChannelDecl(
            name=name,
            system=system.name,
            channel=Channel(matrix),
        )
    channel_names = list(channels)

    protocols: dict[str, dsl.ProtocolDecl] = {}
    for pi in range(int(rng.integers(0, 3))):
        directives = []
        for _ in range(int(rng.integers(1, 6))):
            kind = rng.integers(6)
            if kind == 0 and channel_names:
                target = channel_names[int(rng.integers(len(channel_names)))]
                directives.append(dsl.Directive("apply", target))
            elif kind == 1:
                directives.append(dsl.Directive("evolve", int(rng.integers(0, 100))))
            elif kind == 2:
                directives.append(dsl.Directive("audit", int(rng.integers(1, 100))))
            elif kind == 3:
                directives.append(dsl.Directive("check-correspondence"))
            elif kind == 4:
                directives.append(
                    dsl.Directive("bitop", BITOPS[int(rng.integers(len(BITOPS)))])
                )
            else:
                directives.append(
                    dsl.Directive("report", FORMATS[int(rng.integers(len(FORMATS)))])
                )
        name = f"p{pi}"
        protocols[name] = dsl.ProtocolDecl(name=name, directives=tuple(directives))

    return dsl.ProtocolSpec(
        systems=systems, dists=dists, channels=channels, protocols=protocols
    )
