program t
do i=1,2
  do 10 j=1,3
    write(6,*) j
10 end do
  write(6,*) i
end do
end program t
