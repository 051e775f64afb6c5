"""``python -m qsearch``: the same command line as the ``qsearch`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
