module hotalloc

go 1.21
