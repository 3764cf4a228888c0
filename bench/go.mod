module finitelb/bench

go 1.22

require finitelb v0.0.0

replace finitelb => ../
