"""``python -m psitools``: the psitools command line."""
from psitools.cli import script_entry

if __name__ == "__main__":
    script_entry()
