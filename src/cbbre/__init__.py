"""Continuous-state branching processes in a Brownian random environment.

Subpackages by concern:

* ``mechanisms``  - branching mechanisms and their closed forms,
                    environment parameters, regimes
* ``environment`` - environment paths, exponential functionals, densities
* ``flow``        - backward Laplace-exponent equation, conditional probabilities
* ``simulate``    - pathwise SDE simulation with event detection
* ``longterm``    - survival/explosion/extinction probabilities, asymptotics
* ``conditioned`` - Q-process and the process conditioned on extinction
* ``immigration`` - semigroup formulas with immigration
* ``cli``         - command-line front end driven by one JSON config
"""

__version__ = "0.1.0"
