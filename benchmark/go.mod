module vedrfolnir/benchmark

go 1.22

require vedrfolnir v0.0.0

replace vedrfolnir => ../
