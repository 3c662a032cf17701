"""The fixed plant constants shared by every mesoscopic engine.

The paper's plant is SUMO, and the meso engines reproduce what it does
rather than offer alternatives to it:

* queues discharge at SUMO's saturation headway — deliberately
  independent of the movements' ``µ``, which the paper sets to 1 as a
  controller-side gain constant;
* each phase application loses its first seconds of green to start-up
  (drivers reacting and accelerating), which is what makes frequent
  switching cost more than the amber itself;
* lane-area detectors see a vehicle still rolling once it is within the
  sensing horizon of the stop line;
* an outgoing road's sensor reads what the upstream signal head can see
  from the junction mouth: 0 while the road still absorbs traffic, its
  occupancy once congestion spills back to the junction;
* a served vehicle crosses its next road in that road's free-flow time.

No caller varies any of these, so they are module constants and not
engine options; ``meso``, ``meso-counts`` and ``meso-vec`` stay
bit-exact with each other because they all read them from here.
"""

#: Seconds of green at the start of every phase application during
#: which nothing crosses the stop line.
STARTUP_LOST = 2.0

#: Look-ahead of the movement-queue sensors in seconds.
SENSING_HORIZON = 2.0

#: Seconds between consecutive vehicles discharging from one lane.
SATURATION_HEADWAY = 1.3

#: Vehicles per second one lane discharges under green.
SATURATION_RATE = 1.0 / SATURATION_HEADWAY
