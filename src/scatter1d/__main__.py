"""``python -m scatter1d``: the same command line as the ``scatter1d`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
