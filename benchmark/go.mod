module voodoo/benchmark

go 1.22

require voodoo v0.0.0

replace voodoo => ../
