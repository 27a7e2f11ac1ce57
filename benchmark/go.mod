module tango/benchmark

go 1.22

require tango v0.0.0

replace tango => ../
