"""The unit of work every workload times and verifies."""
from dataclasses import dataclass


@dataclass
class Op:
    index: int  # position in the seed's op stream; digests are keyed by it
    payload: object
