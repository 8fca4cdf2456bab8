"""Import the program from this checkout's ``src`` for the benchmark's tests."""

from perfbench.run import import_program

import_program()
